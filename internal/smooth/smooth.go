// Package smooth implements the Laplacian Mesh Smoothing application of the
// paper (Algorithm 1): visit the interior vertices, move each to the average
// of its neighbors (Eq. 1), and iterate until the global quality improves by
// less than the convergence criterion (5e-6 in the paper's evaluation) or an
// iteration cap is hit.
//
// The visit order is the quality-greedy traversal §4.2 describes: the
// smoother starts at the worst-quality vertex and repeatedly moves to the
// worst-quality unprocessed neighbor (restarting from the globally worst
// unprocessed vertex when stuck). This traversal is a property of the
// algorithm, independent of how vertices are numbered in memory — which is
// exactly why the RDR ordering works: it lays vertices out in the order
// this traversal touches them. A plain storage-order sweep is available as
// an ablation.
//
// Coordinate updates are Jacobi-style (all moves within an iteration read
// the previous iteration's coordinates). This makes the numerical result —
// and hence the iteration count — independent of the vertex ordering and of
// the number of cores, matching the paper's observation that "the orderings
// did not change the number of iterations needed". A Gauss–Seidel in-place
// variant is provided for the serial ablation study.
//
// Smoother is the one entry point for both dimensions and both execution
// layouts: Run smooths triangle meshes and RunTet tetrahedral meshes, and
// the one-shot Run/RunContext and RunTet/RunTetContext wrap a fresh
// Smoother. Options with Partitions > 1 select the domain-decomposed
// layout (partitioned.go): one engine per halo-carrying partition,
// synchronized by a per-sweep ghost exchange. The same Jacobi property
// makes it bit-identical to the single engine at any partition count.
// Both layouts share one preamble and one convergence loop (engine.go),
// and both measure global quality on the whole mesh.
//
// The paper's argument is dimension-agnostic, and so is the engine: the
// loop, the kernel set and registry (kernel.go), and the partitioned
// layout are written once and instantiated at 2D and 3D through the
// dim2/dim3 value types (dim.go).
//
// The mesh's coordinate array is the engine's only coordinate state, and
// each kernel and metric has one arithmetic body (its Update, Triangle or
// Tet method). One Jacobi chunk body and one in-place sweep per dimension
// call the kernel through the interface, except that the 2D Jacobi body
// calls the default PlainKernel through its concrete type; the quality
// passes and the smart kernel's accept test call the default metrics
// through their concrete types.
package smooth

import (
	"context"
	"fmt"

	"lams/internal/faultinject"
	"lams/internal/mesh"
	"lams/internal/quality"
	"lams/internal/trace"
)

// DefaultTol is the paper's quality convergence criterion (§5.1).
const DefaultTol = 0.000005

// Traversal selects the order in which a sweep visits the interior
// vertices.
type Traversal int

const (
	// QualityGreedy is the paper's LMS traversal (§4.2): worst-quality
	// vertex first, then greedily the worst-quality unprocessed neighbor.
	// The walk is computed once from the initial qualities and reused by
	// every iteration (the paper observes the access pattern repeats
	// across iterations, Figure 6).
	QualityGreedy Traversal = iota
	// StorageOrder sweeps the interior vertices in storage order
	// (ablation).
	StorageOrder
)

func (t Traversal) String() string {
	if t == StorageOrder {
		return "storage-order"
	}
	return "quality-greedy"
}

// Options configures a smoothing run in either dimension. The zero value
// means: the dimension's default metric and kernel, tolerance DefaultTol,
// at most 100 iterations, one worker, quality-greedy traversal, Jacobi
// updates, no tracing.
//
// Metric and Kernel configure triangle-mesh (2D) runs; TetMetric and
// TetKernel configure tetrahedral runs. Setting a field from the other
// dimension is rejected, so a run cannot silently ignore half its
// configuration.
type Options struct {
	// Metric is the quality metric for 2D runs (default
	// quality.EdgeRatio{}).
	Metric quality.Metric
	// TetMetric is the quality metric for tetrahedral runs (default
	// quality.MeanRatio3{}).
	TetMetric quality.TetMetric
	// Tol stops the run when an iteration improves global quality by less
	// than this amount (default DefaultTol). A negative Tol disables the
	// criterion so exactly MaxIters iterations run.
	Tol float64
	// GoalQuality stops the run once global quality reaches it (default 1,
	// i.e. effectively "run to convergence").
	GoalQuality float64
	// MaxIters caps the iteration count (default 100).
	MaxIters int
	// Workers is the number of parallel workers; the visit sequence is
	// statically partitioned into contiguous chunks, one per worker — the
	// OpenMP schedule(static) analogue (default 1).
	Workers int
	// Schedule names the registered chunk schedule that distributes the
	// visit sequence across the workers: "static" (default), "guided",
	// "stealing", or any schedule added via parallel.RegisterScheduler.
	// Jacobi updates make the numerical result bit-identical under every
	// schedule; only the worker↔chunk assignment (and with it locality and
	// balance) changes. Ignored by in-place (Gauss-Seidel style) runs,
	// which are serial.
	Schedule string
	// Traversal selects the visit order (default QualityGreedy).
	Traversal Traversal
	// Kernel is the per-vertex update rule for 2D runs (default
	// PlainKernel{}, Eq. 1).
	Kernel Kernel
	// TetKernel is the per-vertex update rule for tetrahedral runs
	// (default PlainKernel3{}).
	TetKernel TetKernel
	// GaussSeidel selects in-place updates for a Jacobi-style kernel. The
	// in-place sweep is serial at any worker count (the update order is the
	// semantics); Workers > 1 parallelizes the quality measurements.
	GaussSeidel bool
	// CheckEvery measures global quality every CheckEvery-th sweep instead
	// of after every sweep (default 1). Quality measurement costs a full
	// pass over the elements; converged workloads that run many cheap
	// sweeps can amortize it. QualityHistory records only the measured
	// iterations, the convergence criterion (Tol) applies to the
	// improvement since the previous measurement, and the final executed
	// sweep is always measured so FinalQuality stays exact. The smoothed
	// coordinates are unaffected: sweeps never read the measurement.
	CheckEvery int
	// Partitions > 1 decomposes the mesh and sweeps it with one engine
	// per partition, exchanging halo coordinates after every sweep; the
	// Smoother keeps the decomposition for later runs on the same mesh.
	// Jacobi updates make the result bit-identical to the single-engine
	// run at any partition count. 0 or 1 selects the single engine;
	// negative counts are rejected. Partitioned runs reject in-place
	// kernels, GaussSeidel, and Trace.
	Partitions int
	// Partitioner names the registered decomposition strategy for
	// Partitions > 1: "bfs" (default) or "bisect", or any strategy added
	// via partition.Register.
	Partitioner string
	// Progress, when non-nil, observes the run's convergence live: it is
	// called serially from the converge loop with the initial measurement
	// (iteration 0) and then after every measured sweep — the same points
	// QualityHistory records. It must be fast and must not smooth the mesh
	// reentrantly; long-running services use it to surface job progress.
	Progress func(iteration int, quality float64)
	// Checkpoint, when non-nil, is called serially from the converge loop
	// with a self-contained snapshot of the run after every
	// CheckpointEvery-th measured sweep, except one whose quality gain fell
	// below Tol and so stopped the run; the final sweep at MaxIters and the
	// sweep that reaches GoalQuality do emit. A run
	// resumed from any emitted Checkpoint finishes with bit-identical
	// coordinates, Iterations, Accesses, and QualityHistory to the
	// uninterrupted run. The snapshot owns its memory; the callback may
	// persist it asynchronously.
	Checkpoint func(Checkpoint)
	// CheckpointEvery emits a checkpoint every CheckpointEvery-th measured
	// sweep (default 1, i.e. every measurement; see CheckEvery for the
	// measurement cadence itself). CheckpointInterval computes the
	// Young/Daly optimum from measured sweep and checkpoint costs.
	CheckpointEvery int
	// Resume, when non-nil, restarts the run from the given checkpoint
	// instead of from the mesh's current coordinates: the snapshot's
	// coordinates are restored, the iteration/access counters and quality
	// history continue from their checkpointed values, and the initial
	// measurement is skipped. The checkpoint must have been emitted under
	// the same trajectory-affecting configuration (kernel, metric,
	// tolerances, caps, cadence, traversal — fingerprint-enforced);
	// workers, schedule, and partition count may differ freely.
	Resume *Checkpoint
	// Faults, when non-nil, is consulted at named injection points (one
	// per sweep at faultinject.PointEngineSweep, plus the halo-exchange
	// points on partitioned runs) and aborts the run with the injected
	// error when a point fires. Production runs leave it nil and pay one
	// nil check per sweep.
	Faults *faultinject.Set
	// Trace, when non-nil, records every vertex-array access (the smoothed
	// vertex, then each of its neighbors) on the worker's stream. The
	// buffer must have at least Workers cores.
	Trace *trace.Buffer
}

// withDefaults resolves the dimension-independent defaults. The
// dimension-specific defaults (metric, kernel) resolve in dim2/dim3.prepare
// so both dimensions share this one function.
func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	if o.GoalQuality == 0 {
		o.GoalQuality = 1
	}
	if o.MaxIters == 0 {
		o.MaxIters = 100
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 1
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1
	}
	if o.Partitions == 0 {
		o.Partitions = 1
	}
	return o
}

// validate rejects invalid resolved options with the same errors in both
// dimensions and both layouts. Called after withDefaults.
func (o Options) validate() error {
	if o.Workers < 1 {
		return fmt.Errorf("smooth: workers must be >= 1, got %d", o.Workers)
	}
	if o.CheckEvery < 1 {
		return fmt.Errorf("smooth: check-every must be >= 1, got %d", o.CheckEvery)
	}
	if o.CheckpointEvery < 1 {
		return fmt.Errorf("smooth: checkpoint-every must be >= 1, got %d", o.CheckpointEvery)
	}
	if o.Partitions < 1 {
		return fmt.Errorf("smooth: partitions must be >= 1, got %d", o.Partitions)
	}
	if o.Trace != nil {
		if o.Partitions > 1 {
			return fmt.Errorf("smooth: partitioned runs do not support tracing")
		}
		if o.Trace.NumCores() < o.Workers {
			return fmt.Errorf("smooth: trace buffer has %d cores, need %d", o.Trace.NumCores(), o.Workers)
		}
	}
	return nil
}

// Result reports a smoothing run.
type Result struct {
	// Iterations is the number of smoothing sweeps executed.
	Iterations int
	// InitialQuality and FinalQuality are the global qualities before and
	// after the run.
	InitialQuality, FinalQuality float64
	// QualityHistory holds the global quality after each iteration.
	QualityHistory []float64
	// Accesses counts vertex-array accesses performed by the sweeps (each
	// smoothed vertex plus each of its neighbors, per iteration).
	Accesses int64
}

// Run smooths the triangle mesh in place with a one-shot engine and returns
// the run statistics. Callers that smooth repeatedly should hold a Smoother
// and use its Run method, which reuses the scratch buffers and the
// partitioned layout's mesh decomposition across runs.
func Run(m *mesh.Mesh, opt Options) (Result, error) {
	return RunContext(context.Background(), m, opt)
}

// RunContext is Run with cancellation: the context is checked between
// iterations, between worker chunks, and during partitioned halo
// exchanges.
func RunContext(ctx context.Context, m *mesh.Mesh, opt Options) (Result, error) {
	return NewSmoother().Run(ctx, m, opt)
}

// RunTet smooths the tetrahedral mesh in place with a one-shot engine; the
// tetrahedral analogue of Run, executing the same generic engine.
func RunTet(m *mesh.TetMesh, opt Options) (Result, error) {
	return RunTetContext(context.Background(), m, opt)
}

// RunTetContext is RunTet with cancellation; see RunContext.
func RunTetContext(ctx context.Context, m *mesh.TetMesh, opt Options) (Result, error) {
	return NewSmoother().RunTet(ctx, m, opt)
}
