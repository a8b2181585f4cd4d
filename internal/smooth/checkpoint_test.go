package smooth

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"lams/internal/faultinject"
)

// The checkpoint equivalence harness: run a configuration uninterrupted
// while capturing every checkpoint, then resume a fresh run from each
// captured checkpoint — optionally under different execution axes
// (workers, schedule, partitions) — and require the resumed run's coords,
// Iterations, Accesses, and QualityHistory to be bit-identical to the
// uninterrupted run. This is the golden matrix's bar applied to the
// resume path, including the cells the golden file does not cover:
// in-place kernels, the Gauss-Seidel ablation, CheckEvery > 1, and
// Tol-terminated runs.

type ckptConfig struct {
	dim         int
	kernel      string
	gaussSeidel bool
	schedule    string
	workers     int
	partitions  int
	checkEvery  int
	maxIters    int
	tol         float64
}

func (c ckptConfig) name() string {
	gs := ""
	if c.gaussSeidel {
		gs = "+gs"
	}
	return fmt.Sprintf("dim=%d/kernel=%s%s/schedule=%s/workers=%d/partitions=%d/checkevery=%d",
		c.dim, c.kernel, gs, c.schedule, c.workers, c.partitions, c.checkEvery)
}

func (c ckptConfig) inPlace() bool { return c.gaussSeidel || c.kernel == "smart" }

// ckptRun executes c from a fresh mesh and returns the result plus the
// final flattened coordinates; resume and capture thread through Options.
func ckptRun(t *testing.T, c ckptConfig, resume *Checkpoint, capture func(Checkpoint)) (Result, []float64) {
	t.Helper()
	opt := Options{
		MaxIters: c.maxIters, Tol: c.tol, CheckEvery: c.checkEvery,
		Workers: c.workers, Schedule: c.schedule, Partitions: c.partitions,
		GaussSeidel: c.gaussSeidel,
		Resume:      resume, Checkpoint: capture,
	}
	if c.dim == 2 {
		m := genMesh(t, 500)
		opt.Kernel = goldenKernel2(t, c.kernel, nil)
		res, err := Run(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		coords := make([]float64, 0, 2*len(m.Coords))
		for _, p := range m.Coords {
			coords = append(coords, p.X, p.Y)
		}
		return res, coords
	}
	m := genTetMesh(t, 4)
	opt.TetKernel = goldenKernel3(t, c.kernel, nil)
	res, err := RunTet(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]float64, 0, 3*len(m.Coords))
	for _, p := range m.Coords {
		coords = append(coords, p.X, p.Y, p.Z)
	}
	return res, coords
}

// ckptCompare requires bitwise equality of everything Result reports plus
// the final coordinates.
func ckptCompare(t *testing.T, label string, want, got Result, wantCoords, gotCoords []float64) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations = %d, want %d", label, got.Iterations, want.Iterations)
	}
	if got.Accesses != want.Accesses {
		t.Errorf("%s: accesses = %d, want %d", label, got.Accesses, want.Accesses)
	}
	if math.Float64bits(got.InitialQuality) != math.Float64bits(want.InitialQuality) {
		t.Errorf("%s: initial quality %v != %v", label, got.InitialQuality, want.InitialQuality)
	}
	if math.Float64bits(got.FinalQuality) != math.Float64bits(want.FinalQuality) {
		t.Errorf("%s: final quality %v != %v", label, got.FinalQuality, want.FinalQuality)
	}
	if len(got.QualityHistory) != len(want.QualityHistory) {
		t.Fatalf("%s: history length %d, want %d", label, len(got.QualityHistory), len(want.QualityHistory))
	}
	for i := range want.QualityHistory {
		if math.Float64bits(got.QualityHistory[i]) != math.Float64bits(want.QualityHistory[i]) {
			t.Fatalf("%s: history[%d] = %v, want %v", label, i, got.QualityHistory[i], want.QualityHistory[i])
		}
	}
	if len(gotCoords) != len(wantCoords) {
		t.Fatalf("%s: %d coords, want %d", label, len(gotCoords), len(wantCoords))
	}
	for i := range wantCoords {
		if math.Float64bits(gotCoords[i]) != math.Float64bits(wantCoords[i]) {
			t.Fatalf("%s: coord[%d] = %v, want %v", label, i, gotCoords[i], wantCoords[i])
		}
	}
}

// crossAxes returns an execution configuration with different workers,
// schedule, and partitioning than c — the axes a checkpoint is allowed to
// migrate across. In-place kernels stay single-engine (the partitioned
// driver rejects them) and flip only the measurement workers.
func crossAxes(c ckptConfig) ckptConfig {
	x := c
	if x.workers == 1 {
		x.workers = 4
	} else {
		x.workers = 1
	}
	if x.inPlace() {
		return x
	}
	if x.schedule == "stealing" {
		x.schedule = "static"
	} else {
		x.schedule = "stealing"
	}
	if x.partitions > 1 {
		x.partitions = 1
	} else {
		x.partitions = 3
	}
	return x
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	execs := []struct {
		schedule   string
		workers    int
		partitions int
	}{
		{"static", 1, 1},
		{"guided", 4, 1},
		{"stealing", 4, 3},
	}
	var cases []ckptConfig
	for _, dim := range []int{2, 3} {
		for _, kernel := range []string{"plain", "smart", "weighted", "constrained"} {
			for _, gs := range []bool{false, true} {
				if gs && kernel != "plain" {
					continue // one Gauss-Seidel ablation cell per dim is enough
				}
				for _, ex := range execs {
					inPlace := gs || kernel == "smart"
					if inPlace && ex.partitions > 1 {
						continue
					}
					for _, ce := range []int{1, 2} {
						cases = append(cases, ckptConfig{
							dim: dim, kernel: kernel, gaussSeidel: gs,
							schedule: ex.schedule, workers: ex.workers, partitions: ex.partitions,
							checkEvery: ce, maxIters: 6, tol: -1,
						})
					}
				}
			}
		}
	}

	for _, c := range cases {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			var cps []Checkpoint
			want, wantCoords := ckptRun(t, c, nil, func(cp Checkpoint) { cps = append(cps, cp) })
			// Tol is disabled, so every measured sweep (every checkEvery-th
			// iteration) emits a checkpoint.
			if wantN := c.maxIters / c.checkEvery; len(cps) != wantN {
				t.Fatalf("captured %d checkpoints, want %d", len(cps), wantN)
			}
			for _, cp := range cps {
				cp := cp
				got, gotCoords := ckptRun(t, c, &cp, nil)
				ckptCompare(t, fmt.Sprintf("resume@%d", cp.Iteration), want, got, wantCoords, gotCoords)

				x := crossAxes(c)
				got, gotCoords = ckptRun(t, x, &cp, nil)
				ckptCompare(t, fmt.Sprintf("resume@%d under %s", cp.Iteration, x.name()), want, got, wantCoords, gotCoords)
			}
		})
	}
}

// TestCheckpointResumeAcrossTolStop pins the interplay of resume with the
// convergence criterion: a Tol-terminated run resumed from any checkpoint
// stops at the same iteration with the same history.
func TestCheckpointResumeAcrossTolStop(t *testing.T) {
	c := ckptConfig{dim: 2, kernel: "plain", schedule: "static", workers: 1, partitions: 1,
		checkEvery: 1, maxIters: 60, tol: 1e-5}
	var cps []Checkpoint
	want, wantCoords := ckptRun(t, c, nil, func(cp Checkpoint) { cps = append(cps, cp) })
	if want.Iterations >= c.maxIters || want.Iterations < 3 {
		t.Fatalf("test wants a Tol stop after a few sweeps, got %d iterations", want.Iterations)
	}
	// The stopping sweep does not emit (the run ended there).
	if len(cps) != want.Iterations-1 {
		t.Fatalf("captured %d checkpoints for %d iterations", len(cps), want.Iterations)
	}
	for _, cp := range cps {
		cp := cp
		got, gotCoords := ckptRun(t, c, &cp, nil)
		ckptCompare(t, fmt.Sprintf("resume@%d", cp.Iteration), want, got, wantCoords, gotCoords)
	}
}

// TestCheckpointJSONRoundTrip pins persistence: a checkpoint serialized
// through encoding/json and resumed from the decoded copy is still
// bit-identical — the property the lamsd job journal relies on.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	c := ckptConfig{dim: 3, kernel: "weighted", schedule: "guided", workers: 4, partitions: 1,
		checkEvery: 1, maxIters: 5, tol: -1}
	var cps []Checkpoint
	want, wantCoords := ckptRun(t, c, nil, func(cp Checkpoint) { cps = append(cps, cp) })
	if len(cps) < 2 {
		t.Fatalf("captured %d checkpoints", len(cps))
	}
	buf, err := json.Marshal(cps[1])
	if err != nil {
		t.Fatal(err)
	}
	var decoded Checkpoint
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	got, gotCoords := ckptRun(t, c, &decoded, nil)
	ckptCompare(t, "resume from decoded checkpoint", want, got, wantCoords, gotCoords)
}

func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	base := ckptConfig{dim: 2, kernel: "plain", schedule: "static", workers: 1, partitions: 1,
		checkEvery: 1, maxIters: 3, tol: -1}
	var cps []Checkpoint
	ckptRun(t, base, nil, func(cp Checkpoint) { cps = append(cps, cp) })
	cp := cps[0]

	m := genMesh(t, 500)
	// Different kernel → different fingerprint.
	if _, err := Run(m, Options{MaxIters: 3, Tol: -1, Kernel: WeightedKernel{}, Resume: &cp}); err == nil {
		t.Error("resume under a different kernel was accepted")
	}
	// Different iteration cap → different trajectory-affecting config.
	if _, err := Run(m, Options{MaxIters: 4, Tol: -1, Resume: &cp}); err == nil {
		t.Error("resume under a different MaxIters was accepted")
	}
	// Different mesh size.
	small := genMesh(t, 200)
	if _, err := Run(small, Options{MaxIters: 3, Tol: -1, Resume: &cp}); err == nil {
		t.Error("resume on a different mesh size was accepted")
	}
	// Corrupted coordinate payload.
	bad := cp
	bad.Coords = bad.Coords[:len(bad.Coords)-2]
	if _, err := Run(m, Options{MaxIters: 3, Tol: -1, Resume: &bad}); err == nil {
		t.Error("resume with truncated coords was accepted")
	}
	// Inconsistent counters.
	bad = cp
	bad.QualityHistory = append(append([]float64(nil), bad.QualityHistory...), 0.5, 0.6, 0.7)
	if _, err := Run(m, Options{MaxIters: 3, Tol: -1, Resume: &bad}); err == nil {
		t.Error("resume with more measurements than sweeps was accepted")
	}
	// The partitioned driver enforces the same fingerprint.
	if _, err := Run(m, Options{MaxIters: 4, Tol: -1, Partitions: 3, Resume: &cp}); err == nil {
		t.Error("partitioned resume under a different MaxIters was accepted")
	}
}

// TestResumeRejectsCorruptVisit: a resumed run replays the checkpoint's
// Visit verbatim, so a Visit that is not a permutation of the mesh's
// interior vertices must be rejected before the run touches the mesh — an
// out-of-range vertex (which would index past the coordinates, inside a
// worker goroutine on a parallel run), a boundary vertex (which would move),
// or a repeated vertex. The partitioned driver ignores Visit but applies the
// same check.
func TestResumeRejectsCorruptVisit(t *testing.T) {
	probe := genMesh(t, 500)
	boundary := int32(-1)
	for v, b := range probe.IsBoundary {
		if b {
			boundary = int32(v)
			break
		}
	}
	defects := []struct {
		name    string
		corrupt func(visit []int32)
	}{
		{"out-of-range", func(vs []int32) { vs[len(vs)/2] = int32(probe.NumVerts()) + 4 }},
		{"boundary", func(vs []int32) { vs[len(vs)/2] = boundary }},
		{"duplicate", func(vs []int32) { vs[len(vs)/2] = vs[0] }},
	}
	for _, c := range []ckptConfig{
		{dim: 2, kernel: "smart", schedule: "static", workers: 1, partitions: 1, checkEvery: 1, maxIters: 3, tol: -1},
		{dim: 2, kernel: "plain", schedule: "stealing", workers: 4, partitions: 1, checkEvery: 1, maxIters: 3, tol: -1},
		{dim: 2, kernel: "plain", schedule: "static", workers: 2, partitions: 3, checkEvery: 1, maxIters: 3, tol: -1},
	} {
		// Capture on the single engine, which records its visit order.
		capture := c
		capture.partitions = 1
		var cps []Checkpoint
		ckptRun(t, capture, nil, func(cp Checkpoint) { cps = append(cps, cp) })
		if len(cps) == 0 || len(cps[0].Visit) == 0 {
			t.Fatalf("%s: no checkpoint with a visit order captured", c.name())
		}
		for _, d := range defects {
			t.Run(c.name()+"/"+d.name, func(t *testing.T) {
				bad := cps[0]
				bad.Visit = append([]int32(nil), bad.Visit...)
				d.corrupt(bad.Visit)
				m := genMesh(t, 500)
				before := m.Clone()
				_, err := Run(m, Options{
					MaxIters: c.maxIters, Tol: c.tol, CheckEvery: c.checkEvery,
					Workers: c.workers, Schedule: c.schedule, Partitions: c.partitions,
					Kernel: goldenKernel2(t, c.kernel, nil), Resume: &bad,
				})
				if err == nil {
					t.Fatal("resume with a corrupt visit order was accepted")
				}
				coordsEqual(t, "mesh after the rejected resume", m, before)
			})
		}
	}
}

func TestCheckpointEveryCadence(t *testing.T) {
	c := ckptConfig{dim: 2, kernel: "plain", schedule: "static", workers: 1, partitions: 1,
		checkEvery: 1, maxIters: 6, tol: -1}
	var iters []int
	opt := Options{MaxIters: 6, Tol: -1, CheckpointEvery: 2,
		Checkpoint: func(cp Checkpoint) { iters = append(iters, cp.Iteration) }}
	m := genMesh(t, 500)
	if _, err := Run(m, opt); err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 || iters[0] != 2 || iters[1] != 4 || iters[2] != 6 {
		t.Fatalf("CheckpointEvery=2 emitted at %v, want [2 4 6]", iters)
	}
	if _, err := Run(m, Options{CheckpointEvery: -1}); err == nil {
		t.Error("negative CheckpointEvery was accepted")
	}
	_ = c
}

// TestEngineSweepFaultPoint: an injected engine fault aborts the run with
// the partial result intact, and resuming from the last checkpoint
// completes bit-identically to the uninterrupted run — the retry loop
// lamsd runs, in miniature.
func TestEngineSweepFaultPoint(t *testing.T) {
	for _, partitions := range []int{1, 3} {
		t.Run(fmt.Sprintf("partitions=%d", partitions), func(t *testing.T) {
			c := ckptConfig{dim: 2, kernel: "plain", schedule: "static", workers: 2, partitions: partitions,
				checkEvery: 1, maxIters: 5, tol: -1}
			want, wantCoords := ckptRun(t, c, nil, nil)

			fs := faultinject.New()
			fs.ArmAfter(faultinject.PointEngineSweep, 3)
			var cps []Checkpoint
			m := genMesh(t, 500)
			opt := Options{MaxIters: 5, Tol: -1, Workers: 2, Partitions: partitions,
				Faults: fs, Checkpoint: func(cp Checkpoint) { cps = append(cps, cp) }}
			res, err := Run(m, opt)
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			if res.Iterations != 2 {
				t.Fatalf("failed at iteration %d, want 2 (fault armed on 3rd sweep)", res.Iterations)
			}
			if len(cps) == 0 {
				t.Fatal("no checkpoint before the fault")
			}
			got, gotCoords := ckptRun(t, c, &cps[len(cps)-1], nil)
			ckptCompare(t, "resume after injected fault", want, got, wantCoords, gotCoords)
		})
	}
}

// TestExchangeFaultPoints: injected halo-exchange failures abort the
// partitioned run with the injected error instead of deadlocking the
// peers blocked in their receives.
func TestExchangeFaultPoints(t *testing.T) {
	for _, pt := range []string{faultinject.PointExchangeSend, faultinject.PointExchangeRecv} {
		t.Run(pt, func(t *testing.T) {
			fs := faultinject.New()
			fs.ArmAfter(pt, 2)
			m := genMesh(t, 500)
			done := make(chan struct{})
			var res Result
			var err error
			go func() {
				defer close(done)
				res, err = Run(m, Options{MaxIters: 5, Tol: -1, Partitions: 3, Faults: fs})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("partitioned run deadlocked on injected exchange fault")
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			if res.Iterations < 1 {
				t.Fatalf("iterations = %d; fault should land mid-run", res.Iterations)
			}
		})
	}
}

func TestCheckpointIntervalYoungDaly(t *testing.T) {
	// sqrt(2 · 50ms · 1000s) = 10s of work between checkpoints; at 1ms a
	// sweep that is 10000 sweeps.
	if got := CheckpointInterval(time.Millisecond, 50*time.Millisecond, 1000*time.Second); got != 10000 {
		t.Errorf("interval = %d, want 10000", got)
	}
	// Expensive sweeps relative to checkpoint cost floor at 1.
	if got := CheckpointInterval(time.Hour, time.Millisecond, time.Second); got != 1 {
		t.Errorf("interval = %d, want 1 (floored)", got)
	}
	// Degenerate inputs fall back to every sweep.
	for _, d := range [][3]time.Duration{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}} {
		if got := CheckpointInterval(d[0], d[1], d[2]); got != 1 {
			t.Errorf("CheckpointInterval(%v) = %d, want 1", d, got)
		}
	}
}

// TestCheckpointCancellationUnaffected: the cancellation contract survives
// the checkpoint insertions — a canceled run still returns ctx.Err() with
// the partial result.
func TestCheckpointCancellationUnaffected(t *testing.T) {
	m := genMesh(t, 500)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := RunContext(ctx, m, Options{MaxIters: 10, Tol: -1,
		Checkpoint: func(Checkpoint) {
			if n++; n == 2 {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
