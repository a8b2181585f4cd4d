package lams

import (
	"context"
	"fmt"
	"time"

	"lams/internal/faultinject"
	"lams/internal/parallel"
	"lams/internal/partition"
	"lams/internal/smooth"
)

// DefaultTol is the paper's quality convergence criterion (§5.1).
const DefaultTol = smooth.DefaultTol

// DefaultMaxIterations is the sweep cap applied when WithMaxIterations is
// not given.
const DefaultMaxIterations = 100

// SmoothResult reports a smoothing run: iterations executed, global quality
// before/after and per iteration, and the vertex-access count. 2D and 3D
// runs share this shape.
type SmoothResult = smooth.Result

// Kernel is the per-vertex update rule of a 2D smoothing sweep; see the
// *Kernel constructors. Custom kernels plug into the same engine.
type Kernel = smooth.Kernel

// PlainKernel is Eq. (1): move each vertex to the unweighted average of its
// neighbors (the default).
func PlainKernel() Kernel { return smooth.PlainKernel{} }

// SmartKernel keeps a move only when it does not decrease the vertex's
// local quality (serial). A nil metric means EdgeRatio.
func SmartKernel(met Metric) Kernel { return smooth.SmartKernel{Metric: met} }

// WeightedKernel averages neighbors with inverse-edge-length weights.
func WeightedKernel() Kernel { return smooth.WeightedKernel{} }

// ConstrainedKernel is the plain update with each per-sweep displacement
// clamped to maxDisplacement (> 0).
func ConstrainedKernel(maxDisplacement float64) Kernel {
	return smooth.ConstrainedKernel{MaxDisplacement: maxDisplacement}
}

// KernelNames lists the registered kernel names in canonical order: plain,
// smart, weighted, constrained. The same vocabulary configures Smooth (2D)
// and SmoothTet (3D).
func KernelNames() []string { return smooth.KernelNames() }

// KernelsByName resolves a registered kernel name into its 2D and 3D forms
// in one call — the name-based form of the *Kernel constructors, for
// services that select kernels from requests and serve both mesh kinds.
// met and tmet parameterize the smart kernels (nil selects the dimension
// defaults) and maxDisplacement the constrained kernel (required > 0 for
// it, ignored by the others). Both kernels come from one registry row, so
// the dimensions' vocabularies and validation cannot drift apart.
func KernelsByName(name string, met Metric, tmet TetMetric, maxDisplacement float64) (Kernel, TetKernel, error) {
	return smooth.KernelsByName(name, smooth.KernelConfig{
		Metric: met, TetMetric: tmet, MaxDisplacement: maxDisplacement,
	})
}

// DefaultSchedule is the chunk schedule used when WithSchedule is not
// given: the paper's OpenMP schedule(static) analogue.
const DefaultSchedule = parallel.ScheduleStatic

// Schedules lists the registered chunk-schedule names in presentation
// order: static, guided, stealing, then any schedules added through
// RegisterScheduler.
func Schedules() []string { return parallel.Schedules() }

// Scheduler distributes a sweep's index range across workers; see
// parallel.Scheduler for the exactly-once / contiguous-chunk contract a
// custom schedule must honor.
type Scheduler = parallel.Scheduler

// RegisterScheduler adds a custom chunk schedule to the registry, making it
// available to WithSchedule by name. It panics on a duplicate or empty
// name.
func RegisterScheduler(name string, factory func() Scheduler) {
	parallel.RegisterScheduler(name, factory)
}

// DefaultPartitioner is the decomposition strategy used when WithPartitioner
// is not given: greedy BFS growth into contiguous, balanced partitions.
const DefaultPartitioner = partition.BFS

// Partitioners lists the registered domain-decomposition strategy names in
// presentation order: bfs, bisect, then any strategies added through
// partition.Register.
func Partitioners() []string { return partition.Names() }

// smoothConfig collects SmoothOption settings. The scalar fields (workers,
// schedule, iteration and convergence controls, traversal, tracing) apply
// to 2D and 3D runs alike; the metric/kernel pairs are dimension-specific
// and validated by Smooth and SmoothTet respectively.
type smoothConfig struct {
	opt       smooth.Options // 2D metric/kernel plus all shared fields
	tetMetric TetMetric
	tetKernel TetKernel
}

// SmoothOption configures a smoothing run (2D or 3D; the dimension-specific
// options say which entry points accept them).
type SmoothOption func(*smoothConfig)

// WithWorkers sets the number of parallel workers (default 1). The visit
// sequence is statically partitioned into contiguous chunks, one per
// worker — the OpenMP schedule(static) analogue.
func WithWorkers(n int) SmoothOption {
	return func(c *smoothConfig) { c.opt.Workers = n }
}

// WithSchedule selects the registered chunk schedule that distributes the
// sweep across workers: "static" (the default, the OpenMP schedule(static)
// analogue), "guided" (decaying chunk sizes from a shared cursor), or
// "stealing" (per-worker contiguous ranges with randomized stealing).
// Jacobi updates make the smoothed coordinates bit-identical under every
// schedule — only load balance and locality change. An unknown name makes
// Smooth return an error listing the registered schedules (see Schedules).
func WithSchedule(name string) SmoothOption {
	return func(c *smoothConfig) { c.opt.Schedule = name }
}

// WithPartitions decomposes the mesh into k partitions and smooths with one
// engine per partition, exchanging halo (ghost-vertex) coordinates at every
// sweep barrier — the domain-decomposition execution mode. Jacobi updates
// make the smoothed coordinates, quality history, and access counts
// bit-identical to the single-engine run at any partition count; only the
// execution layout changes. k == 0 or 1 selects the single engine; a
// negative k makes the run fail. Partitioned runs reject in-place kernels
// (SmartKernel), WithGaussSeidel, and WithTrace. Applies to Smooth and
// SmoothTet alike.
func WithPartitions(k int) SmoothOption {
	return func(c *smoothConfig) { c.opt.Partitions = k }
}

// WithPartitioner selects the registered decomposition strategy used by
// WithPartitions: "bfs" (the default; greedy breadth-first growth into
// contiguous balanced partitions) or "bisect" (recursive coordinate
// bisection). An unknown name makes the run fail with an error listing the
// registered strategies (see Partitioners).
func WithPartitioner(name string) SmoothOption {
	return func(c *smoothConfig) { c.opt.Partitioner = name }
}

// WithMaxIterations caps the number of smoothing sweeps (default 100).
func WithMaxIterations(n int) SmoothOption {
	return func(c *smoothConfig) { c.opt.MaxIters = n }
}

// WithTolerance stops the run when an iteration improves global quality by
// less than tol (default DefaultTol). A negative tol disables the criterion
// so exactly the iteration cap runs.
func WithTolerance(tol float64) SmoothOption {
	return func(c *smoothConfig) { c.opt.Tol = tol }
}

// WithGoalQuality stops the run once global quality reaches q.
func WithGoalQuality(q float64) SmoothOption {
	return func(c *smoothConfig) { c.opt.GoalQuality = q }
}

// WithCheckEvery measures global quality every k-th sweep instead of after
// every sweep (default 1). Measurement costs a full pass over the mesh's
// elements; workloads that run many sweeps to convergence can amortize it
// across k sweeps. The semantics are documented on smooth.Options: the
// quality history records only the measured iterations, the convergence
// tolerance applies to the improvement since the previous measurement, the
// final executed sweep is always measured (so the reported final quality is
// exact), and the smoothed coordinates are unaffected. k == 0 selects the
// default cadence of 1; a negative k makes the run fail. Applies to Smooth
// and SmoothTet alike.
func WithCheckEvery(k int) SmoothOption {
	return func(c *smoothConfig) { c.opt.CheckEvery = k }
}

// WithMetric sets the 2D quality metric (default EdgeRatio). Smooth only;
// use WithTetMetric for tetrahedral runs.
func WithMetric(met Metric) SmoothOption {
	return func(c *smoothConfig) { c.opt.Metric = met }
}

// WithKernel sets the 2D per-vertex update rule (default PlainKernel).
// Smooth only; use WithTetKernel for tetrahedral runs.
func WithKernel(k Kernel) SmoothOption {
	return func(c *smoothConfig) { c.opt.Kernel = k }
}

// WithTetMetric sets the tetrahedral quality metric (default MeanRatio).
// SmoothTet only.
func WithTetMetric(met TetMetric) SmoothOption {
	return func(c *smoothConfig) { c.tetMetric = met }
}

// WithTetKernel sets the tetrahedral per-vertex update rule (default
// PlainTetKernel). SmoothTet only.
func WithTetKernel(k TetKernel) SmoothOption {
	return func(c *smoothConfig) { c.tetKernel = k }
}

// WithStorageOrderTraversal sweeps the interior vertices in storage order
// instead of the paper's quality-greedy traversal (an ablation).
func WithStorageOrderTraversal() SmoothOption {
	return func(c *smoothConfig) { c.opt.Traversal = smooth.StorageOrder }
}

// WithGaussSeidel applies each update in place (serial), instead of the
// default Jacobi buffering that makes results independent of ordering and
// worker count.
func WithGaussSeidel() SmoothOption {
	return func(c *smoothConfig) { c.opt.GaussSeidel = true }
}

// WithTrace records every vertex access on tb (which needs one stream per
// worker) for locality analysis.
func WithTrace(tb *TraceBuffer) SmoothOption {
	return func(c *smoothConfig) { c.opt.Trace = tb }
}

// WithProgress observes the run's convergence live: fn is called serially
// from the converge loop with the initial measurement (iteration 0) and
// then after every measured sweep — the same points the result's
// QualityHistory records (so with WithCheckEvery(k) it fires every k-th
// sweep). fn must be fast and must not smooth reentrantly; services use it
// to surface async-job progress. Applies to Smooth and SmoothTet alike.
func WithProgress(fn func(iteration int, quality float64)) SmoothOption {
	return func(c *smoothConfig) { c.opt.Progress = fn }
}

// Checkpoint is a self-contained snapshot of a smoothing run emitted by
// WithCheckpoint and accepted by WithResume: coordinates, iteration and
// access counters, quality history, and a configuration fingerprint. A run
// resumed from a Checkpoint finishes bit-identical — coordinates,
// iterations, accesses, quality history — to the uninterrupted run, and
// may do so under a different worker count, schedule, or partitioning
// (the fingerprint covers only trajectory-affecting configuration).
// Checkpoints serialize losslessly through encoding/json, so services
// persist them for crash recovery.
type Checkpoint = smooth.Checkpoint

// WithCheckpoint calls fn serially from the converge loop with a snapshot
// of the run after every WithCheckpointEvery-th measured sweep, except one
// whose quality gain fell below the tolerance and so stopped the run; the
// final sweep at the iteration cap and the sweep that reaches the goal
// quality do emit. The snapshot owns its memory, so fn may hand it to a
// persistence goroutine. Applies to Smooth and SmoothTet alike.
func WithCheckpoint(fn func(Checkpoint)) SmoothOption {
	return func(c *smoothConfig) { c.opt.Checkpoint = fn }
}

// WithCheckpointEvery emits a checkpoint every k-th measured sweep
// (default 1; see WithCheckEvery for the measurement cadence itself).
// CheckpointInterval computes the Young/Daly optimum from measured costs.
func WithCheckpointEvery(k int) SmoothOption {
	return func(c *smoothConfig) { c.opt.CheckpointEvery = k }
}

// WithResume restarts the run from cp instead of the mesh's current
// coordinates: the snapshot's coordinates are restored and the counters
// and quality history continue from their checkpointed values. The
// checkpoint must come from a run with the same trajectory-affecting
// configuration (kernel, metric, tolerances, caps, cadence, traversal) on
// a mesh of the same dimension and size; workers, schedule, and
// partitions may differ freely.
func WithResume(cp *Checkpoint) SmoothOption {
	return func(c *smoothConfig) { c.opt.Resume = cp }
}

// CheckpointInterval returns the Young/Daly optimal checkpoint period —
// sqrt(2·C·MTBF), with C the measured cost of one checkpoint — expressed
// in sweeps of the given measured cost (at least 1). Feed the result to
// WithCheckpointEvery to compute the cadence instead of guessing it.
func CheckpointInterval(sweepCost, checkpointCost, mtbf time.Duration) int {
	return smooth.CheckpointInterval(sweepCost, checkpointCost, mtbf)
}

// FaultSet is a set of named, deterministically armed fault-injection
// points (see internal/faultinject). Production code leaves it nil.
type FaultSet = faultinject.Set

// WithFaultInjection arms the run's fault-injection points (one per sweep,
// plus the halo-exchange points on partitioned runs): when an armed point
// fires, the run aborts with an error wrapping faultinject.ErrInjected.
// Chaos testing only; a nil set is the production default and costs one
// nil check per sweep.
func WithFaultInjection(fs *FaultSet) SmoothOption {
	return func(c *smoothConfig) { c.opt.Faults = fs }
}

func buildOptions(opts []SmoothOption) (smooth.Options, error) {
	var c smoothConfig
	for _, opt := range opts {
		opt(&c)
	}
	if c.tetMetric != nil || c.tetKernel != nil {
		return smooth.Options{}, fmt.Errorf("lams: WithTetMetric/WithTetKernel select tetrahedral rules; use them with SmoothTet, not Smooth")
	}
	return c.opt, nil
}

func buildOptions3(opts []SmoothOption) (smooth.Options, error) {
	var c smoothConfig
	for _, opt := range opts {
		opt(&c)
	}
	if c.opt.Metric != nil || c.opt.Kernel != nil {
		return smooth.Options{}, fmt.Errorf("lams: WithMetric/WithKernel select 2D rules; use WithTetMetric/WithTetKernel with SmoothTet")
	}
	o := c.opt
	o.TetMetric = c.tetMetric
	o.TetKernel = c.tetKernel
	return o, nil
}

// Smooth runs Laplacian smoothing on m in place and returns the run
// statistics. The context cancels between iterations and worker chunks; on
// cancellation the mesh holds the last completed sweep's coordinates.
func Smooth(ctx context.Context, m *Mesh, opts ...SmoothOption) (SmoothResult, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return SmoothResult{}, err
	}
	return smooth.RunContext(ctx, m, o)
}

// SmoothTraced smooths m in place for exactly iters iterations (ignoring
// the convergence criterion) while recording the per-worker access trace,
// and returns both.
func SmoothTraced(ctx context.Context, m *Mesh, workers, iters int) (SmoothResult, *TraceBuffer, error) {
	tb := NewTraceBuffer(workers)
	res, err := Smooth(ctx, m,
		WithWorkers(workers),
		WithMaxIterations(iters),
		WithTolerance(-1),
		WithTrace(tb))
	return res, tb, err
}

// Smoother is a reusable smoothing engine: it keeps the visit-sequence,
// next-coordinate, and quality scratch buffers across runs, so services
// that smooth many meshes (or one mesh repeatedly) stop reallocating on the
// hot path. The one dimension-generic engine underneath serves triangular
// and tetrahedral meshes alike from a single pooled instance, and runs
// with WithPartitions(k > 1) additionally keep the mesh decomposition
// across runs. Not safe for concurrent use; the zero value is ready.
type Smoother struct {
	engine smooth.Smoother
}

// NewSmoother returns a reusable smoothing engine.
func NewSmoother() *Smoother { return &Smoother{} }

// Smooth is like the package-level Smooth but reuses the engine's buffers
// and, for partitioned runs, its cached mesh decomposition.
func (s *Smoother) Smooth(ctx context.Context, m *Mesh, opts ...SmoothOption) (SmoothResult, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return SmoothResult{}, err
	}
	return s.engine.Run(ctx, m, o)
}

// SmoothTet is like the package-level SmoothTet but reuses the engine's
// buffers and, for partitioned runs, its cached mesh decomposition.
func (s *Smoother) SmoothTet(ctx context.Context, m *TetMesh, opts ...SmoothOption) (SmoothResult, error) {
	o, err := buildOptions3(opts)
	if err != nil {
		return SmoothResult{}, err
	}
	return s.engine.RunTet(ctx, m, o)
}

// Reset releases the engine's scratch buffers and any cached mesh
// decompositions. Engine pools call it when parking an engine that last
// smoothed an unusually large mesh, so idle engines do not pin their
// high-water-mark memory; the buffers re-grow on the next run.
func (s *Smoother) Reset() { s.engine.Reset() }

// DropMeshCache releases any per-mesh state the engine caches for m (a
// partitioned run keeps the mesh decomposition warm across runs), and
// reports whether anything was dropped. m is the *Mesh or *TetMesh the
// cache would reference; services call this when a mesh is evicted so a
// warm pooled engine cannot pin the deleted mesh — and its O(mesh)
// decomposition — until the whole pool is trimmed.
func (s *Smoother) DropMeshCache(m any) bool { return s.engine.DropMeshCache(m) }

// DropPartitionCaches unconditionally releases every cached mesh
// decomposition, keeping the rest of the engine's (mesh-agnostic) scratch
// warm. The conservative form of DropMeshCache for callers that no longer
// know which meshes are stale.
func (s *Smoother) DropPartitionCaches() { s.engine.DropPartitionCaches() }
