package smooth

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"lams/internal/geom"
	"lams/internal/mesh"
	"lams/internal/parallel"
	"lams/internal/partition"
	"lams/internal/quality"
)

// partitionCounts is the partition-count axis of the partitioned
// equivalence harness: the degenerate single partition, small counts, and
// more partitions than the host has cores.
var partitionCounts = []int{1, 2, 3, 8}

func partResultsEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations = %d, want %d", label, got.Iterations, want.Iterations)
	}
	if got.Accesses != want.Accesses {
		t.Errorf("%s: accesses = %d, want %d", label, got.Accesses, want.Accesses)
	}
	if got.InitialQuality != want.InitialQuality {
		t.Errorf("%s: initial quality = %v, want bit-identical %v", label, got.InitialQuality, want.InitialQuality)
	}
	if got.FinalQuality != want.FinalQuality {
		t.Errorf("%s: final quality = %v, want bit-identical %v", label, got.FinalQuality, want.FinalQuality)
	}
	if len(got.QualityHistory) != len(want.QualityHistory) {
		t.Fatalf("%s: history length %d, want %d", label, len(got.QualityHistory), len(want.QualityHistory))
	}
	for i := range want.QualityHistory {
		if got.QualityHistory[i] != want.QualityHistory[i] {
			t.Errorf("%s: history[%d] = %v, want bit-identical %v", label, i, got.QualityHistory[i], want.QualityHistory[i])
		}
	}
}

// TestPartitionedEquivalence2D is the domain-decomposition equivalence
// harness: for every registered partitioner, partition count, schedule,
// and worker count, a partitioned run must produce bit-identical
// coordinates — and identical Result accounting (accesses, quality
// history) — to the serial single-engine reference. This is the contract
// that makes partitioned smoothing safe to expose at every layer: the
// decomposition changes where a vertex is computed, never what is
// computed.
func TestPartitionedEquivalence2D(t *testing.T) {
	base := genMesh(t, 2000)
	const iters = 4
	ref := base.Clone()
	refRes, err := Run(ref, Options{MaxIters: iters, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, pname := range partition.Names() {
		for _, k := range partitionCounts {
			for _, schedule := range parallel.Schedules() {
				for _, workers := range scheduleWorkerCounts {
					name := fmt.Sprintf("%s/k=%d/%s/workers=%d", pname, k, schedule, workers)
					t.Run(name, func(t *testing.T) {
						got := base.Clone()
						res, err := RunPartitioned(ctx, got, Options{
							MaxIters:    iters,
							Tol:         -1,
							Workers:     workers,
							Schedule:    schedule,
							Partitions:  k,
							Partitioner: pname,
						})
						if err != nil {
							t.Fatal(err)
						}
						coordsEqual(t, name, got, ref)
						partResultsEqual(t, name, res, refRes)
					})
				}
			}
		}
	}
}

func tetCoordsEqual(t *testing.T, label string, got, want *mesh.TetMesh) {
	t.Helper()
	for i := range want.Coords {
		if got.Coords[i] != want.Coords[i] {
			t.Fatalf("%s: vertex %d differs bit-wise: got %v, want %v", label, i, got.Coords[i], want.Coords[i])
		}
	}
}

// TestPartitionedEquivalence3D is the tetrahedral twin of the 2D harness.
func TestPartitionedEquivalence3D(t *testing.T) {
	base := genTetMesh(t, 7)
	const iters = 4
	ref := base.Clone()
	refRes, err := RunTet(ref, Options{MaxIters: iters, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, pname := range partition.Names() {
		for _, k := range partitionCounts {
			for _, schedule := range parallel.Schedules() {
				for _, workers := range scheduleWorkerCounts {
					name := fmt.Sprintf("%s/k=%d/%s/workers=%d", pname, k, schedule, workers)
					t.Run(name, func(t *testing.T) {
						got := base.Clone()
						res, err := RunPartitionedTet(ctx, got, Options{
							MaxIters:    iters,
							Tol:         -1,
							Workers:     workers,
							Schedule:    schedule,
							Partitions:  k,
							Partitioner: pname,
						})
						if err != nil {
							t.Fatal(err)
						}
						tetCoordsEqual(t, name, got, ref)
						partResultsEqual(t, name, res, refRes)
					})
				}
			}
		}
	}
}

// TestPartitionedConvergenceDecisions runs with the real convergence
// machinery live — default Tol, CheckEvery > 1, a reachable GoalQuality —
// so the partitioned driver's loop must make the exact same stop/measure
// decisions as the single engine, not just the same sweeps.
func TestPartitionedConvergenceDecisions(t *testing.T) {
	base := genMesh(t, 1200)
	ctx := context.Background()
	cases := []Options{
		{MaxIters: 40},                            // default Tol stops the run
		{MaxIters: 25, CheckEvery: 3},             // measurement cadence + final-sweep measure
		{MaxIters: 40, GoalQuality: 0.9, Tol: -1}, // goal-quality stop
		{MaxIters: 7, CheckEvery: 4, Tol: -1},     // cap hits off-cadence
		{MaxIters: 30, Kernel: WeightedKernel{}},  // non-default kernel (interface case)
		{MaxIters: 30, Kernel: ConstrainedKernel{MaxDisplacement: 0.001}},
	}
	for i, opt := range cases {
		ref := base.Clone()
		refRes, err := Run(ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		popt := opt
		popt.Partitions, popt.Partitioner = 3, partition.Bisect
		popt.Workers, popt.Schedule = 4, parallel.ScheduleGuided
		got := base.Clone()
		res, err := RunPartitioned(ctx, got, popt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("case %d", i)
		coordsEqual(t, label, got, ref)
		partResultsEqual(t, label, res, refRes)
	}
}

// sumKernel is a user-supplied kernel: the partitioned interface-dispatch
// sweep must be bit-identical too.
type sumKernel struct{}

func (sumKernel) Name() string  { return "test-sum" }
func (sumKernel) InPlace() bool { return false }
func (sumKernel) Update(m *mesh.Mesh, v int32) geom.Point {
	return PlainKernel{}.Update(m, v)
}

// TestPartitionedGenericPathEquivalence pins the interface cases of the
// sweep (a custom kernel, a non-default built-in kernel) and of the
// measurement (a non-default metric) to the single-engine result.
func TestPartitionedGenericPathEquivalence(t *testing.T) {
	base := genMesh(t, 1000)
	ctx := context.Background()
	for i, opt := range []Options{
		{MaxIters: 3, Tol: -1, Kernel: sumKernel{}},
		{MaxIters: 3, Tol: -1, Kernel: WeightedKernel{}},
		{MaxIters: 3, Tol: -1, Metric: quality.MinAngle{}},
	} {
		ref := base.Clone()
		refRes, err := Run(ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		popt := opt
		popt.Partitions, popt.Workers = 4, 3
		got := base.Clone()
		res, err := RunPartitioned(ctx, got, popt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("case %d", i)
		coordsEqual(t, label, got, ref)
		partResultsEqual(t, label, res, refRes)
	}
}

// TestPartitionedSmootherReuse drives one driver through the lamsd pool's
// access pattern: repeated runs on the same mesh (decomposition cache
// hits), a partitioner switch, then a different mesh (cache miss). Every
// run must match a fresh single-engine run from the same coordinates.
func TestPartitionedSmootherReuse(t *testing.T) {
	ctx := context.Background()
	ps := NewPartitionedSmoother()
	reused := genMesh(t, 1200)
	fresh := reused.Clone()
	steps := []struct {
		k     int
		pname string
	}{{2, "bfs"}, {2, "bfs"}, {3, "bisect"}, {2, "bfs"}}
	for i, step := range steps {
		opt := Options{MaxIters: 2, Tol: -1, Workers: 3, Partitions: step.k, Partitioner: step.pname}
		res, err := ps.Run(ctx, reused, opt)
		if err != nil {
			t.Fatal(err)
		}
		refRes, err := Run(fresh, Options{MaxIters: 2, Tol: -1})
		if err != nil {
			t.Fatal(err)
		}
		coordsEqual(t, fmt.Sprintf("step %d", i), reused, fresh)
		partResultsEqual(t, fmt.Sprintf("step %d", i), res, refRes)
	}
	// Different mesh through the same driver: the cache must rebuild.
	reused2 := genMesh(t, 700)
	fresh2 := reused2.Clone()
	if _, err := ps.Run(ctx, reused2, Options{MaxIters: 2, Tol: -1, Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(fresh2, Options{MaxIters: 2, Tol: -1}); err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, "second mesh", reused2, fresh2)
}

// TestPartitionedRejections pins the configurations the partitioned driver
// must refuse: in-place updates (whose sequential semantics cannot be
// decomposed), tracing, bad counts, unknown partitioners — and the single
// engine refusing partitioned options.
func TestPartitionedRejections(t *testing.T) {
	m := genMesh(t, 300)
	before := m.Clone()
	ctx := context.Background()
	bad := []Options{
		{MaxIters: 1, GaussSeidel: true, Partitions: 2},
		{MaxIters: 1, Kernel: SmartKernel{}, Partitions: 2},
		{MaxIters: 1, Partitions: 2, Partitioner: "metis"},
		{MaxIters: 1, Partitions: -2},
		{MaxIters: 1, Partitions: 100000},
		{MaxIters: 1, Partitions: 2, Workers: -1},
	}
	for i, opt := range bad {
		if _, err := RunPartitioned(ctx, m, opt); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opt)
		}
	}
	if _, err := NewSmoother().Run(ctx, m, Options{MaxIters: 1, Partitions: 2}); err == nil {
		t.Error("single engine accepted partitions > 1")
	}
	coordsEqual(t, "untouched after rejections", m, before)
}

// trippingExchanger cancels the run's context on its n-th Exchange call,
// simulating a cancellation (deadline, client gone) landing mid-exchange.
type trippingExchanger struct {
	inner  partition.Exchanger
	calls  atomic.Int64
	tripAt int64
	cancel context.CancelFunc
}

func (e *trippingExchanger) Exchange(ctx context.Context, part int, out [][]float64) ([][]float64, error) {
	if e.calls.Add(1) == e.tripAt {
		e.cancel()
		return nil, ctx.Err()
	}
	return e.inner.Exchange(ctx, part, out)
}

// TestPartitionedCancellationMidExchange cancels during the halo exchange
// of a mid-run sweep: the run must return context.Canceled and the global
// mesh must hold exactly the last sweep every partition completed — the
// same state a single-engine run stopped after that many iterations
// produces — never a torn mix.
func TestPartitionedCancellationMidExchange(t *testing.T) {
	const k = 3
	base := genMesh(t, 900)
	for _, tripAt := range []int64{1, k + 2} { // first sweep's exchange, and mid second sweep's
		ctx, cancel := context.WithCancel(context.Background())
		got := base.Clone()
		// Prime the decomposition with a run that stops before its first
		// sweep (GoalQuality below any real quality), then wrap the cached
		// exchanger so the next run trips mid-exchange.
		ps := NewPartitionedSmoother()
		prime, err := ps.Run(ctx, got, Options{GoalQuality: -1, Tol: -1, Partitions: k})
		if err != nil {
			t.Fatal(err)
		}
		if prime.Iterations != 0 {
			t.Fatalf("priming run swept %d times", prime.Iterations)
		}
		ps.p2.ex = &trippingExchanger{inner: ps.p2.ex, tripAt: tripAt, cancel: cancel}
		res, err := ps.Run(ctx, got, Options{MaxIters: 6, Tol: -1, Workers: 2, Partitions: k})
		if err != context.Canceled {
			t.Fatalf("tripAt=%d: err = %v, want context.Canceled", tripAt, err)
		}
		wantIters := 1
		if tripAt > k {
			wantIters = 2
		}
		if res.Iterations != wantIters {
			t.Fatalf("tripAt=%d: iterations = %d, want %d", tripAt, res.Iterations, wantIters)
		}
		ref := base.Clone()
		if _, err := Run(ref, Options{MaxIters: res.Iterations, Tol: -1}); err != nil {
			t.Fatal(err)
		}
		coordsEqual(t, fmt.Sprintf("tripAt=%d", tripAt), got, ref)
		cancel()
	}
}

// TestPartitionedCancellationMidSweep cancels from inside a kernel update
// during the first partitioned sweep: no partition may publish, so the
// mesh must be untouched (the exact contract the single engine and every
// schedule already honor).
func TestPartitionedCancellationMidSweep(t *testing.T) {
	m := genMesh(t, 900)
	before := m.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	kern := concurrentCancelKernel{after: 40, calls: new(atomic.Int64), cancel: cancel}
	res, err := RunPartitioned(ctx, m, Options{
		MaxIters: 10, Tol: -1, Workers: 2, Partitions: 3, Kernel: kern,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations != 0 {
		t.Errorf("committed %d iterations after a first-sweep cancellation", res.Iterations)
	}
	coordsEqual(t, "no partial publish", m, before)
}

// TestPartitionedSteadyStateAllocs pins the partitioned driver's
// steady-state allocation budget: once a warm run has cached the
// decomposition for the mesh, a run allocates only per-sweep coordination —
// the goroutines of the sweep and exchange barriers and each partition
// engine's chunk-body closure, 6 per partition per sweep as measured — and
// never a decomposition, a local mesh, or a coordinate buffer (a rebuild
// costs thousands). The bound leaves a little room for runtime variance.
func TestPartitionedSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	const iters, k = 3, 4
	m, m3 := genMesh(t, 4000), genTetMesh(t, 8)
	for _, dim := range []int{2, 3} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			ps := NewPartitionedSmoother()
			opt := Options{MaxIters: iters, Tol: -1, Workers: 2, Partitions: k}
			run := func() error { _, err := ps.Run(ctx, m, opt); return err }
			if dim == 3 {
				run = func() error { _, err := ps.RunTet(ctx, m3, opt); return err }
			}
			if err := run(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			})
			if ceiling := 6*k*iters + 8; allocs > float64(ceiling) {
				t.Errorf("%.0f allocs per steady-state %d-iteration %d-partition run, want <= %d", allocs, iters, k, ceiling)
			}
		})
	}
}
