package lamsd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lams/internal/faultinject"
	"lams/pkg/lams"
)

// The job journal is the write-ahead log that makes async smooth jobs
// survive a crash. Every accepted job appends an "accept" record — with the
// full original smoothRequest, so the job can be re-planned from scratch on
// a later boot — before the 202 goes out; retries and terminal outcomes
// append their own records. Each append is fsynced, so the journal's tail
// is at most one torn line behind reality, and replay simply stops at the
// first incomplete or unparsable line: every record before it was written
// whole.
//
// Replay at Open computes the set of jobs that were accepted but never
// reached a terminal record — exactly the jobs a crash interrupted — and
// re-enqueues them, resuming from the job's persisted engine checkpoint
// (job-<id>.ckpt, written atomically on every checkpoint emission) when one
// survived. The journal is then compacted down to those pending accepts, so
// it never grows beyond the interrupted work plus the records since boot.
const journalName = "jobs.journal"

type journalOp string

const (
	opAccept   journalOp = "accept"
	opRetry    journalOp = "retry"
	opDone     journalOp = "done"
	opFailed   journalOp = "failed"
	opCanceled journalOp = "canceled"
)

// journalRecord is one JSONL line of the job journal. Accept records carry
// the submission (tenant, mesh, budget, and the request body to re-plan
// from); the other ops reference the job by id.
type journalRecord struct {
	Op        journalOp      `json:"op"`
	Job       string         `json:"job"`
	Seq       uint64         `json:"seq,omitempty"`
	Tenant    string         `json:"tenant,omitempty"`
	MeshID    string         `json:"mesh_id,omitempty"`
	MaxIters  int            `json:"max_iters,omitempty"`
	TimeoutNS int64          `json:"timeout_ns,omitempty"`
	Created   time.Time      `json:"created,omitempty"`
	Request   *smoothRequest `json:"request,omitempty"`
	Attempt   int            `json:"attempt,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// pendingJob is a journaled job with no terminal record: accepted work a
// crash (or unclean shutdown) interrupted, to be re-enqueued at Open.
type pendingJob struct {
	id       string
	seq      uint64
	tenant   string
	meshID   string
	maxIters int
	timeout  time.Duration
	created  time.Time
	request  smoothRequest
	attempts int
}

// jobJournal is the append side of the log. A nil *jobJournal (in-memory
// servers) accepts and discards every append, so callers never branch on
// durability.
type jobJournal struct {
	dir    string
	faults *faultinject.Set

	mu sync.Mutex
	f  *os.File
}

func openJobJournal(dir string, faults *faultinject.Set) (*jobJournal, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lamsd: opening job journal: %w", err)
	}
	return &jobJournal{dir: dir, faults: faults, f: f}, nil
}

// append writes one record and syncs it to disk. The record is durable —
// it will be seen by the next replay — if and only if append returns nil.
func (j *jobJournal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	if err := j.faults.Fire(faultinject.PointJournalAppend); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("lamsd: journal: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("lamsd: journal closed")
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("lamsd: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("lamsd: journal: %w", err)
	}
	return nil
}

func (j *jobJournal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// replayJournal reads the journal and folds it into the pending set: jobs
// with an accept record but no terminal record, in acceptance order. A torn
// final line — the signature of a crash mid-append — ends the replay
// cleanly; everything before it is intact by the fsync-per-append contract.
// Returns the pending jobs and the highest job sequence number seen.
func replayJournal(dir string) ([]pendingJob, uint64, error) {
	f, err := os.Open(filepath.Join(dir, journalName))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("lamsd: replaying job journal: %w", err)
	}
	defer f.Close()

	var (
		maxSeq  uint64
		order   []string
		pending = make(map[string]*pendingJob)
	)
	br := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			// io.EOF with a partial line is the torn tail of a crashed
			// append; any other error means the tail is unreadable. Either
			// way the complete records already folded stand.
			if err == io.EOF {
				break
			}
			return nil, 0, fmt.Errorf("lamsd: replaying job journal: %w", err)
		}
		var rec journalRecord
		if json.Unmarshal([]byte(strings.TrimSuffix(line, "\n")), &rec) != nil {
			break // torn or corrupt line: stop at the last good record
		}
		switch rec.Op {
		case opAccept:
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
			if _, ok := pending[rec.Job]; !ok {
				order = append(order, rec.Job)
			}
			pj := &pendingJob{
				id:       rec.Job,
				seq:      rec.Seq,
				tenant:   rec.Tenant,
				meshID:   rec.MeshID,
				maxIters: rec.MaxIters,
				timeout:  time.Duration(rec.TimeoutNS),
				created:  rec.Created,
				attempts: rec.Attempt,
			}
			if rec.Request != nil {
				pj.request = *rec.Request
			}
			pending[rec.Job] = pj
		case opRetry:
			if pj := pending[rec.Job]; pj != nil {
				pj.attempts = rec.Attempt
			}
		case opDone, opFailed, opCanceled:
			delete(pending, rec.Job)
		}
	}

	out := make([]pendingJob, 0, len(pending))
	for _, id := range order {
		if pj := pending[id]; pj != nil {
			out = append(out, *pj)
		}
	}
	return out, maxSeq, nil
}

// compactJournal rewrites the journal to exactly the pending accepts (each
// carrying its accumulated attempt count), atomically. Open runs it after
// replay so the journal restarts from the interrupted work instead of
// accreting the full history of every boot.
func compactJournal(dir string, pending []pendingJob) error {
	return writeFileAtomic(filepath.Join(dir, journalName), "compacting job journal", 0, func(bw *bufio.Writer) error {
		for _, pj := range pending {
			rec := journalRecord{
				Op:        opAccept,
				Job:       pj.id,
				Seq:       pj.seq,
				Tenant:    pj.tenant,
				MeshID:    pj.meshID,
				MaxIters:  pj.maxIters,
				TimeoutNS: int64(pj.timeout),
				Created:   pj.created,
				Request:   &pj.request,
				Attempt:   pj.attempts,
			}
			if err := writeJSONLine(bw, rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- per-job engine checkpoints ---

// jobCheckpointPath is the durable home of a job's latest engine
// checkpoint: one JSON file, replaced atomically on every emission and
// removed when the job reaches a terminal state.
func jobCheckpointPath(dir, id string) string {
	return filepath.Join(dir, "job-"+id+".ckpt")
}

// writeJobCheckpoint persists cp atomically (see writeFileAtomic). JSON
// round-trips float64 exactly, so a resume from the reloaded checkpoint
// stays bit-identical to one from the in-memory original. The encoder
// writes the same bytes as json.Marshal plus a newline, without the
// intermediate copy.
func writeJobCheckpoint(dir, id string, cp *lams.Checkpoint) error {
	return writeFileAtomic(jobCheckpointPath(dir, id), "job checkpoint", 0, func(bw *bufio.Writer) error {
		if err := json.NewEncoder(bw).Encode(cp); err != nil {
			return fmt.Errorf("lamsd: job checkpoint: %w", err)
		}
		return nil
	})
}

// loadJobCheckpoint returns the job's persisted checkpoint, or nil when none
// exists or it does not parse — a missing checkpoint only means the job
// replays from its beginning, so corruption degrades to a full re-run, never
// a failed boot.
func loadJobCheckpoint(dir, id string) *lams.Checkpoint {
	b, err := os.ReadFile(jobCheckpointPath(dir, id))
	if err != nil {
		return nil
	}
	var cp lams.Checkpoint
	if json.Unmarshal(b, &cp) != nil {
		return nil
	}
	return &cp
}

func removeJobCheckpoint(dir, id string) {
	_ = os.Remove(jobCheckpointPath(dir, id))
	_ = os.Remove(jobCheckpointPath(dir, id) + ".tmp")
}
