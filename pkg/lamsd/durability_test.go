package lamsd

// Tests for the crash-safe job queue: journal replay after a crash or an
// interrupted shutdown, checkpointed resume landing bit-identically on the
// uninterrupted result, retry-with-backoff across every instrumented fault
// point, the durable-accept contract (no 202 without a journal record), and
// bounded drain at Close.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lams/internal/faultinject"
)

// crashClose tears a durable server down the way a crash would: running
// jobs are cut without journaling a terminal record (the closed flag makes
// the runner treat the cancellation as an interruption), the snapshotter
// stops without a final snapshot, and the journal file is simply closed.
// What is on disk afterwards is exactly what a kill -9 would have left,
// modulo the torn tail the replay path tolerates anyway.
func crashClose(s *Server) {
	s.jobs.closeWithDrain(0)
	if s.stopSnap != nil {
		close(s.stopSnap)
		s.snapWG.Wait()
	}
	_ = s.journal.close()
}

// genMeshID generates a deterministic server-side mesh and returns its id.
func genMeshID(t *testing.T, base, domain string, verts int) string {
	t.Helper()
	return createDomainMesh(t, base, domain, verts).ID
}

// submitAsync submits an async smooth job and returns its id.
func submitAsync(t *testing.T, base, meshID string, body map[string]any) string {
	t.Helper()
	resp, data := doJSON(t, http.MethodPost, base+"/v1/meshes/"+meshID+"/smooth?async=1&timeout=5m", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit async job: status %d: %s", resp.StatusCode, data)
	}
	var info jobInfo
	mustUnmarshal(t, data, &info)
	return info.ID
}

// waitJobIterations polls until the job has completed at least n measured
// sweeps (so at least one checkpoint exists when check_every <= n).
func waitJobIterations(t *testing.T, base, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll job %s: status %d: %s", id, resp.StatusCode, data)
		}
		var info jobInfo
		mustUnmarshal(t, data, &info)
		if info.State.terminal() {
			t.Fatalf("job %s ended %s before reaching %d iterations", id, info.State, n)
		}
		if info.Iterations >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %d iterations in time", id, n)
}

// referenceSmooth runs the same request synchronously on a fresh in-memory
// server over the same generated mesh and returns the response plus the
// exported node payload: the uninterrupted baseline crash recovery must
// reproduce byte-for-byte.
func referenceSmooth(t *testing.T, domain string, verts int, body map[string]any) (smoothResponse, []byte) {
	t.Helper()
	_, ts := newTestServer(t)
	id := genMeshID(t, ts.URL, domain, verts)
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/meshes/"+id+"/smooth?timeout=5m", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference smooth: status %d: %s", resp.StatusCode, data)
	}
	var sr smoothResponse
	mustUnmarshal(t, data, &sr)
	return sr, exportPart(t, ts.URL, id, "node")
}

// smoothJobBody is the job every crash/retry test runs: long enough to
// interrupt, Jacobi (so partitioned variants stay legal), convergence
// criterion disabled so the iteration count is deterministic.
func smoothJobBody(extra map[string]any) map[string]any {
	body := map[string]any{
		"kernel":      "plain",
		"workers":     2,
		"max_iters":   400,
		"tol":         -1.0,
		"check_every": 5,
	}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

// TestJournalReplayResumesInterruptedJob is the headline property: a job
// acknowledged with 202, interrupted mid-run by a crash, is re-enqueued on
// the next Open, resumes from its persisted checkpoint, and finishes with
// results byte-identical to a run that was never interrupted.
func TestJournalReplayResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	const domain, verts = "carabiner", 3000
	body := smoothJobBody(nil)

	s1, ts1 := newDurableServer(t, dir)
	meshID := genMeshID(t, ts1.URL, domain, verts)
	if err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	jobID := submitAsync(t, ts1.URL, meshID, body)
	// Let the run get past several checkpoint emissions, then crash.
	waitJobIterations(t, ts1.URL, jobID, 25)
	crashClose(s1)

	if _, err := os.Stat(jobCheckpointPath(dir, jobID)); err != nil {
		t.Fatalf("interrupted job left no checkpoint file: %v", err)
	}

	s2, ts2 := newDurableServer(t, dir)
	defer s2.Close()
	if got := s2.metrics.jobsResumed.Value(); got != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", got)
	}
	info := pollJob(t, ts2.URL, jobID, jobDone)
	if info.Result == nil {
		t.Fatal("resumed job finished without a result")
	}
	if info.Result.Iterations != 400 {
		t.Fatalf("resumed job ran %d iterations, want 400", info.Result.Iterations)
	}
	node := exportPart(t, ts2.URL, meshID, "node")

	wantResp, wantNode := referenceSmooth(t, domain, verts, body)
	if info.Result.FinalQuality != wantResp.FinalQuality {
		t.Fatalf("final quality %v after resume, want %v", info.Result.FinalQuality, wantResp.FinalQuality)
	}
	if info.Result.Accesses != wantResp.Accesses {
		t.Fatalf("accesses %d after resume, want %d", info.Result.Accesses, wantResp.Accesses)
	}
	if !bytes.Equal(node, wantNode) {
		t.Fatal("resumed job's coordinates differ from the uninterrupted run")
	}
	// The terminal record must have cleaned up: nothing pending, no
	// checkpoint file left behind.
	if _, err := os.Stat(jobCheckpointPath(dir, jobID)); !os.IsNotExist(err) {
		t.Fatalf("terminal job's checkpoint file still present (err=%v)", err)
	}
	pending, _, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("journal still holds %d pending jobs after completion", len(pending))
	}
}

// TestCloseInterruptsAndResumes is the graceful-shutdown variant: Close with
// no drain budget cancels the running job, which must NOT journal a terminal
// record — the next Open owes it a resume.
func TestCloseInterruptsAndResumes(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir)
	meshID := genMeshID(t, ts1.URL, "carabiner", 3000)
	if err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	jobID := submitAsync(t, ts1.URL, meshID, smoothJobBody(nil))
	waitJobIterations(t, ts1.URL, jobID, 10)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newDurableServer(t, dir)
	defer s2.Close()
	if got := s2.metrics.jobsResumed.Value(); got != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", got)
	}
	info := pollJob(t, ts2.URL, jobID, jobDone)
	if info.Result == nil || info.Result.Iterations != 400 {
		t.Fatalf("resumed job result = %+v, want a 400-iteration result", info.Result)
	}
}

// TestDrainTimeoutLetsJobsFinish gives Close a generous drain budget: the
// running job completes on its own, reaches done (not canceled), and leaves
// no pending work for the next boot.
func TestDrainTimeoutLetsJobsFinish(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir, WithDrainTimeout(time.Minute))
	meshID := genMeshID(t, ts.URL, "carabiner", 1000)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	jobID := submitAsync(t, ts.URL, meshID, map[string]any{
		"kernel": "plain", "max_iters": 30, "tol": -1.0,
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	job := s.jobs.jobs[jobID]
	if job == nil {
		t.Fatalf("job %s gone after drained Close", jobID)
	}
	if st := job.info().State; st != jobDone {
		t.Fatalf("job state after drained Close = %s, want done", st)
	}
	pending, _, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("drained Close left %d pending jobs in the journal", len(pending))
	}
}

// TestJobRetriesEveryFaultPoint arms each instrumented fault point in turn
// and asserts the async job retries through it — attempts recorded, the
// jobs_retried counter ticking — and still lands byte-identical to a run
// that never saw a fault.
func TestJobRetriesEveryFaultPoint(t *testing.T) {
	const domain, verts = "carabiner", 1500
	cases := []struct {
		point string
		after int
		extra map[string]any
	}{
		{faultinject.PointPoolAcquire, 1, nil},
		{faultinject.PointEngineSweep, 3, nil},
		{faultinject.PointExchangeSend, 2, map[string]any{"partitions": 3}},
		{faultinject.PointExchangeRecv, 2, map[string]any{"partitions": 3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.point, func(t *testing.T) {
			body := smoothJobBody(tc.extra)
			body["max_iters"] = 60

			fs := faultinject.New()
			s, ts := newTestServer(t, WithFaultInjection(fs))
			meshID := genMeshID(t, ts.URL, domain, verts)
			fs.ArmAfter(tc.point, tc.after)
			jobID := submitAsync(t, ts.URL, meshID, body)
			info := pollJob(t, ts.URL, jobID, jobDone)
			if info.Attempts < 2 {
				t.Fatalf("job retried %d attempts, want >= 2", info.Attempts)
			}
			if got := s.metrics.jobsRetried.Value(); got < 1 {
				t.Fatalf("jobs_retried = %d, want >= 1", got)
			}
			if fs.Fired(tc.point) == 0 {
				t.Fatalf("fault point %s never fired", tc.point)
			}
			node := exportPart(t, ts.URL, meshID, "node")

			wantResp, wantNode := referenceSmooth(t, domain, verts, body)
			if info.Result.FinalQuality != wantResp.FinalQuality ||
				info.Result.Iterations != wantResp.Iterations ||
				info.Result.Accesses != wantResp.Accesses {
				t.Fatalf("retried result (iters=%d q=%v acc=%d) != fault-free result (iters=%d q=%v acc=%d)",
					info.Result.Iterations, info.Result.FinalQuality, info.Result.Accesses,
					wantResp.Iterations, wantResp.FinalQuality, wantResp.Accesses)
			}
			if !bytes.Equal(node, wantNode) {
				t.Fatal("retried job's coordinates differ from the fault-free run")
			}
		})
	}
}

// TestPersistentFaultExhaustsRetries: a fault that fires on every attempt
// runs the job out of its attempt budget and fails it — with the terminal
// record journaled, so a restart does not resurrect a poisoned job.
func TestPersistentFaultExhaustsRetries(t *testing.T) {
	dir := t.TempDir()
	fs := faultinject.New()
	s, ts := newDurableServer(t, dir, WithFaultInjection(fs))
	defer s.Close()
	meshID := genMeshID(t, ts.URL, "carabiner", 800)
	// Re-arm on every fire: Fire disarms a count-armed point after it
	// trips, so a "hard" outage is modeled by a probability-1 arming.
	fs.ArmProb(faultinject.PointPoolAcquire, 1.0, 1)
	jobID := submitAsync(t, ts.URL, meshID, smoothJobBody(nil))
	info := pollJob(t, ts.URL, jobID, jobFailed)
	if info.Attempts != maxJobAttempts {
		t.Fatalf("failed after %d attempts, want %d", info.Attempts, maxJobAttempts)
	}
	fs.Disarm(faultinject.PointPoolAcquire)
	pending, _, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("failed job still pending in the journal (%d entries)", len(pending))
	}
}

// TestJournalAppendFaultRejectsSubmission: if the accept record cannot be
// made durable there must be no 202 — and no leaked job, quota slot, or
// waitgroup count (Close would hang on a leak).
func TestJournalAppendFaultRejectsSubmission(t *testing.T) {
	dir := t.TempDir()
	fs := faultinject.New()
	s, ts := newDurableServer(t, dir, WithFaultInjection(fs))
	defer s.Close()
	meshID := genMeshID(t, ts.URL, "carabiner", 800)

	fs.ArmAfter(faultinject.PointJournalAppend, 1)
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/meshes/"+meshID+"/smooth?async=1", smoothJobBody(nil))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission with failing journal: status %d: %s", resp.StatusCode, data)
	}
	if n := s.jobs.Len(); n != 0 {
		t.Fatalf("rejected submission left %d jobs registered", n)
	}
	if n := s.quotas.InFlightJobs(DefaultTenant); n != 0 {
		t.Fatalf("rejected submission left %d quota slots held", n)
	}
	// The journal is healthy again: the next submission is acknowledged and
	// completes.
	jobID := submitAsync(t, ts.URL, meshID, map[string]any{
		"kernel": "plain", "max_iters": 10, "tol": -1.0,
	})
	pollJob(t, ts.URL, jobID, jobDone)
}

// TestReplayJournalTornTail hand-writes a journal whose final record is
// torn mid-line (the crash-mid-append signature): replay must keep every
// complete record and stop cleanly at the tear.
func TestReplayJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"op":"accept","job":"j1","seq":1,"tenant":"default","mesh_id":"m1","max_iters":50,"request":{}}`+"\n")
	fmt.Fprintf(&buf, `{"op":"accept","job":"j2","seq":2,"tenant":"default","mesh_id":"m1","max_iters":50,"request":{}}`+"\n")
	fmt.Fprintf(&buf, `{"op":"retry","job":"j2","attempt":2}`+"\n")
	fmt.Fprintf(&buf, `{"op":"done","job":"j1"}`+"\n")
	fmt.Fprintf(&buf, `{"op":"accept","job":"j3","seq":3,"ten`) // torn
	if err := os.WriteFile(filepath.Join(dir, journalName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	pending, maxSeq, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].id != "j2" {
		t.Fatalf("pending = %+v, want exactly j2", pending)
	}
	if pending[0].attempts != 2 {
		t.Fatalf("j2 attempts = %d, want 2 (from the retry record)", pending[0].attempts)
	}
	if maxSeq != 2 {
		t.Fatalf("maxSeq = %d, want 2 (the torn accept must not count)", maxSeq)
	}
	// Compaction rewrites just the pending accept; a second replay agrees.
	if err := compactJournal(dir, pending); err != nil {
		t.Fatal(err)
	}
	again, maxSeq2, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0].id != "j2" || again[0].attempts != 2 || maxSeq2 != 2 {
		t.Fatalf("post-compaction replay = %+v (maxSeq %d), want j2/attempts=2/maxSeq=2", again, maxSeq2)
	}
}

// TestSnapshotWriteFault: an injected snapshot failure surfaces as an error
// and a snapshot_errors tick while the previous complete snapshot survives
// for the next boot.
func TestSnapshotWriteFault(t *testing.T) {
	dir := t.TempDir()
	fs := faultinject.New()
	s, ts := newDurableServer(t, dir, WithFaultInjection(fs))
	meshID := genMeshID(t, ts.URL, "carabiner", 800)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}

	fs.ArmAfter(faultinject.PointSnapshotWrite, 1)
	s.store.Touch() // dirty the store so the snapshot is attempted
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot with an armed fault returned nil")
	}
	if got := s.metrics.snapshotErrs.Value(); got != 1 {
		t.Fatalf("snapshot_errors = %d, want 1", got)
	}
	crashClose(s)

	s2, ts2 := newDurableServer(t, dir)
	defer s2.Close()
	resp, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/meshes/"+meshID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mesh %s lost after failed snapshot: status %d", meshID, resp.StatusCode)
	}
}

// TestJobStoreFullRetryAfter: the job-store-full 429 advertises Retry-After
// like every other throttle response.
func TestJobStoreFullRetryAfter(t *testing.T) {
	_, ts := newTestServer(t,
		WithJobRetention(time.Hour, 1),
		WithTenantQuotas(0, 0, 0, -1)) // job-cap disabled: reach the store cap itself
	meshID := genMeshID(t, ts.URL, "carabiner", 1500)
	submitAsync(t, ts.URL, meshID, smoothJobBody(nil))
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/meshes/"+meshID+"/smooth?async=1", smoothJobBody(nil))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("job-store-full 429 carries no Retry-After header")
	}
}

func mustUnmarshal(t *testing.T, data []byte, dst any) {
	t.Helper()
	if err := json.Unmarshal(data, dst); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
}

// TestWriteFileAtomicFailureKeepsPrevious pins the one atomic writer behind
// snapshots, journal compaction, and job checkpoints: a write callback that
// fails partway leaves the previous file byte-identical and no temp file
// behind, and one that succeeds replaces the file whole.
func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	prev := []byte("previous complete contents\n")
	if err := os.WriteFile(path, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := writeFileAtomic(path, "test", 0, func(bw *bufio.Writer) error {
		// More than the buffer holds, so part of it reaches the temp file.
		if _, err := bw.WriteString(strings.Repeat("torn ", 5000)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Errorf("previous file after a failed write = %q (err %v), want %q", got, err, prev)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after a failed write: stat err = %v", err)
	}

	err = writeFileAtomic(path, "test", 0, func(bw *bufio.Writer) error {
		_, err := bw.WriteString("new\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new\n" {
		t.Errorf("file after a successful write = %q (err %v), want %q", got, err, "new\n")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after a successful write: stat err = %v", err)
	}
}
