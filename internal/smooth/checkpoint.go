package smooth

import (
	"fmt"
	"math"
	"time"
)

// Checkpoint is a self-contained snapshot of a smoothing run, emitted by
// Options.Checkpoint after a measured sweep and accepted by Options.Resume.
// It captures everything the convergence loop needs to continue — the
// coordinates, the iteration and access counters, the full quality history,
// and the visit order — so a run restarted from a Checkpoint produces
// coordinates, Iterations, Accesses, and QualityHistory bit-identical to
// the uninterrupted run.
//
// The snapshot is independent of the engine that emitted it: all slices are
// fresh copies (safe to retain or persist asynchronously), and the Config
// fingerprint covers only the trajectory-affecting configuration —
// dimension, kernel, metric, tolerances, iteration caps, measurement
// cadence, traversal — deliberately excluding workers, schedule, and
// partition count, which Jacobi updates make irrelevant to the result. A
// run checkpointed on one engine can therefore resume on a different
// worker count, schedule, or partitioning (including single-engine ↔
// partitioned) without breaking bit-identity.
//
// Checkpoints serialize cleanly through encoding/json: Go's float64
// round-trips exactly, so a persisted-and-reloaded Checkpoint preserves
// bit-identity too.
type Checkpoint struct {
	// Config fingerprints the trajectory-affecting options; Resume rejects
	// a checkpoint whose fingerprint does not match the resuming run.
	Config string `json:"config"`
	// Dim is the spatial dimension (2 or 3).
	Dim int `json:"dim"`
	// Iteration is the number of completed sweeps at the snapshot.
	Iteration int `json:"iteration"`
	// Accesses is the cumulative vertex-access count at the snapshot.
	Accesses int64 `json:"accesses"`
	// InitialQuality is the global quality measured before the first sweep.
	InitialQuality float64 `json:"initial_quality"`
	// QualityHistory holds the measured global qualities so far.
	QualityHistory []float64 `json:"quality_history"`
	// Visit is the traversal order the run used (local to the emitting
	// single engine). In-place (Gauss-Seidel style) resumes replay it
	// verbatim — the update order is the semantics; Jacobi resumes may
	// recompute it, since their results are visit-order-independent.
	// Partitioned checkpoints leave it empty.
	Visit []int32 `json:"visit,omitempty"`
	// Coords is the axis-interleaved coordinate snapshot of every vertex
	// (x,y[,z] per vertex) after Iteration sweeps.
	Coords []float64 `json:"coords"`
}

// validateResume rejects a checkpoint that cannot continue the resuming
// run: a different configuration fingerprint, dimension, or mesh size, or a
// visit order that is not a permutation of the mesh's interior vertices.
// boundary flags every vertex of the mesh; interior counts the unflagged
// ones.
func (cp *Checkpoint) validateResume(fp string, dim int, boundary []bool, interior int) error {
	nverts := len(boundary)
	if cp.Config != fp {
		return fmt.Errorf("smooth: resume checkpoint was captured under a different configuration:\n  checkpoint: %s\n  run:        %s", cp.Config, fp)
	}
	if cp.Dim != dim {
		return fmt.Errorf("smooth: resume checkpoint is %dD, run is %dD", cp.Dim, dim)
	}
	if len(cp.Coords) != dim*nverts {
		return fmt.Errorf("smooth: resume checkpoint has %d coordinates, mesh needs %d", len(cp.Coords), dim*nverts)
	}
	if cp.Iteration < 0 || cp.Accesses < 0 {
		return fmt.Errorf("smooth: resume checkpoint has negative counters (iteration %d, accesses %d)", cp.Iteration, cp.Accesses)
	}
	if len(cp.QualityHistory) > cp.Iteration {
		return fmt.Errorf("smooth: resume checkpoint has %d measurements for %d sweeps", len(cp.QualityHistory), cp.Iteration)
	}
	if len(cp.Visit) == 0 {
		return nil
	}
	// A resumed in-place run replays Visit verbatim, so an entry out of
	// range would index past the coordinates, a boundary entry would move
	// a pinned vertex, and a duplicate would update one vertex twice per
	// sweep (and, by the count, skip another).
	if len(cp.Visit) != interior {
		return fmt.Errorf("smooth: resume checkpoint visits %d vertices, mesh has %d interior", len(cp.Visit), interior)
	}
	seen := make([]bool, nverts)
	for i, v := range cp.Visit {
		switch {
		case v < 0 || int(v) >= nverts:
			return fmt.Errorf("smooth: resume checkpoint visit[%d] = %d is out of range [0, %d)", i, v, nverts)
		case boundary[v]:
			return fmt.Errorf("smooth: resume checkpoint visit[%d] = %d is a boundary vertex", i, v)
		case seen[v]:
			return fmt.Errorf("smooth: resume checkpoint visit[%d] = %d repeats a vertex", i, v)
		}
		seen[v] = true
	}
	return nil
}

// configFingerprint renders the trajectory-affecting half of the resolved
// options. Workers, schedule, partitions, and tracing are excluded on
// purpose: the engine guarantees bit-identical results across all of them,
// so a checkpoint may resume under any.
func configFingerprint[D any, PD dimOps[D]](d PD, opt *Options) string {
	return fmt.Sprintf("v1 dim=%d verts=%d %s tol=%g goal=%g maxiters=%d checkevery=%d traversal=%s gs=%t",
		d.axes(), d.numVerts(), d.configDetail(),
		opt.Tol, opt.GoalQuality, opt.MaxIters, opt.CheckEvery, opt.Traversal, opt.GaussSeidel)
}

// makeCheckpoint snapshots the run at its current state; every slice is a
// fresh copy, so the callback may hand the value to another goroutine or
// serialize it after the run moves on.
func makeCheckpoint[D any, PD dimOps[D]](d PD, fp string, res *Result, visit []int32) Checkpoint {
	cp := Checkpoint{
		Config:         fp,
		Dim:            d.axes(),
		Iteration:      res.Iterations,
		Accesses:       res.Accesses,
		InitialQuality: res.InitialQuality,
		QualityHistory: append([]float64(nil), res.QualityHistory...),
		Coords:         d.snapshotCoords(),
	}
	if len(visit) > 0 {
		cp.Visit = append([]int32(nil), visit...)
	}
	return cp
}

// CheckpointInterval returns the Young/Daly optimal checkpoint period,
// τ_opt ≈ sqrt(2·C·MTBF), expressed as a whole number of sweeps (at least
// 1). C is the measured cost of taking one checkpoint, sweepCost the
// measured cost of one smoothing sweep, and mtbf the expected mean time
// between failures of the platform. Callers feed the result to
// Options.CheckpointEvery, replacing a guessed cadence with the
// first-order optimum from the HPC checkpoint-period literature.
func CheckpointInterval(sweepCost, checkpointCost, mtbf time.Duration) int {
	if sweepCost <= 0 || checkpointCost <= 0 || mtbf <= 0 {
		return 1
	}
	tau := math.Sqrt(2 * float64(checkpointCost) * float64(mtbf))
	n := int(math.Round(tau / float64(sweepCost)))
	if n < 1 {
		return 1
	}
	return n
}
