package smooth

import (
	"context"
	"fmt"
	"testing"

	"lams/internal/parallel"
	"lams/internal/quality"
	"lams/internal/trace"
)

// fastPathWorkerCounts is the worker axis of the equivalence suite:
// serial, the small powers of two, and an oversubscribed 16.
var fastPathWorkerCounts = []int{1, 2, 4, 8, 16}

// resultsEqual pins the full Result accounting two equivalent runs must
// share: iteration count, access count, and bit-identical quality values
// (initial, final, and the whole measured history).
func resultsEqual(t *testing.T, got, want Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("iterations = %d, want %d", got.Iterations, want.Iterations)
	}
	if got.Accesses != want.Accesses {
		t.Errorf("accesses = %d, want %d (some vertex was skipped or double-visited)", got.Accesses, want.Accesses)
	}
	if got.InitialQuality != want.InitialQuality {
		t.Errorf("initial quality = %v, want bit-identical %v", got.InitialQuality, want.InitialQuality)
	}
	if got.FinalQuality != want.FinalQuality {
		t.Errorf("final quality = %v, want bit-identical %v", got.FinalQuality, want.FinalQuality)
	}
	if len(got.QualityHistory) != len(want.QualityHistory) {
		t.Fatalf("history length = %d, want %d", len(got.QualityHistory), len(want.QualityHistory))
	}
	for i := range want.QualityHistory {
		if got.QualityHistory[i] != want.QualityHistory[i] {
			t.Errorf("history[%d] = %v, want bit-identical %v", i, got.QualityHistory[i], want.QualityHistory[i])
		}
	}
}

// TestFastPathEquivalence is the 2D equivalence suite: for every built-in
// kernel (including the in-place smart kernel), every built-in metric, and
// both traversals, the run at every registered schedule and workers 1–16
// must produce bit-identical coordinates, accesses, and quality values to
// the serial run of the same configuration. The default kernel and metric
// take the sweep's and the quality passes' concrete-type cases (the fast
// path), the others the interface cases; TestFastPathMatchesInterface pins
// the two cases against each other.
func TestFastPathEquivalence(t *testing.T) {
	base := genMesh(t, 1600)
	const iters = 3
	kernels := []Kernel{PlainKernel{}, WeightedKernel{}, ConstrainedKernel{MaxDisplacement: 0.05}, SmartKernel{}}
	metrics := []quality.Metric{quality.EdgeRatio{}, quality.MinAngle{}, quality.AspectRatio{}}

	for _, kern := range kernels {
		for _, met := range metrics {
			for _, traversal := range []Traversal{QualityGreedy, StorageOrder} {
				ref := base.Clone()
				refRes, err := Run(ref, Options{
					MaxIters: iters, Tol: -1, Traversal: traversal,
					Kernel: kern, Metric: met,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, schedule := range parallel.Schedules() {
					for _, workers := range fastPathWorkerCounts {
						name := fmt.Sprintf("%s/%s/%s/%s/workers=%d", kern.Name(), met.Name(), traversal, schedule, workers)
						t.Run(name, func(t *testing.T) {
							got := base.Clone()
							res, err := Run(got, Options{
								MaxIters: iters, Tol: -1, Traversal: traversal,
								Kernel: kern, Metric: met,
								Workers: workers, Schedule: schedule,
							})
							if err != nil {
								t.Fatal(err)
							}
							coordsEqual(t, name, got, ref)
							resultsEqual(t, res, refRes)
						})
					}
				}
			}
		}
	}
}

// TestFastPathEquivalence3 is the 3D twin of TestFastPathEquivalence.
func TestFastPathEquivalence3(t *testing.T) {
	base := genTetMesh(t, 9)
	const iters = 3
	kernels := []TetKernel{PlainKernel3{}, WeightedKernel3{}, ConstrainedKernel3{MaxDisplacement: 0.02}, SmartKernel3{}}
	metrics := []quality.TetMetric{quality.MeanRatio3{}, quality.EdgeRatio3{}}

	for _, kern := range kernels {
		for _, met := range metrics {
			for _, traversal := range []Traversal{QualityGreedy, StorageOrder} {
				ref := base.Clone()
				refRes, err := RunTet(ref, Options{
					MaxIters: iters, Tol: -1, Traversal: traversal,
					TetKernel: kern, TetMetric: met,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, schedule := range parallel.Schedules() {
					for _, workers := range fastPathWorkerCounts {
						name := fmt.Sprintf("%s/%s/%s/%s/workers=%d", kern.Name(), met.Name(), traversal, schedule, workers)
						t.Run(name, func(t *testing.T) {
							got := base.Clone()
							res, err := RunTet(got, Options{
								MaxIters: iters, Tol: -1, Traversal: traversal,
								TetKernel: kern, TetMetric: met,
								Workers: workers, Schedule: schedule,
							})
							if err != nil {
								t.Fatal(err)
							}
							coords3Equal(t, name, got, ref)
							resultsEqual(t, res, refRes)
						})
					}
				}
			}
		}
	}
}

// ifaceKernel, ifaceKernel3, ifaceMetric and ifaceTetMetric hide a
// kernel's or metric's concrete type, so the engine and the quality passes
// take their interface cases, as they do for custom kernels and metrics.
type ifaceKernel struct{ Kernel }

type ifaceKernel3 struct{ TetKernel }

type ifaceMetric struct{ quality.Metric }

type ifaceTetMetric struct{ quality.TetMetric }

// TestFastPathMatchesInterface pins the concrete-type cases (the 2D default
// kernel, the default metrics, and the smart kernel's accept test through
// the default metric) to the interface cases: the same kernels and metrics
// behind a wrapper must produce bit-identical results, in both dimensions,
// serially and with parallel chunks and measurements.
func TestFastPathMatchesInterface(t *testing.T) {
	base := genMesh(t, 1200)
	base3 := genTetMesh(t, 7)
	for _, workers := range []int{1, 4} {
		for _, smart := range []bool{false, true} {
			name := fmt.Sprintf("smart=%t/workers=%d", smart, workers)
			t.Run(name, func(t *testing.T) {
				opt := Options{MaxIters: 3, Tol: -1, Workers: workers}
				iopt := opt
				iopt.Kernel, iopt.Metric = ifaceKernel{PlainKernel{}}, ifaceMetric{quality.EdgeRatio{}}
				if smart {
					opt.Kernel = SmartKernel{}
					iopt.Kernel = ifaceKernel{SmartKernel{Metric: ifaceMetric{quality.EdgeRatio{}}}}
				}
				want, got := base.Clone(), base.Clone()
				wantRes, err := Run(want, opt)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(got, iopt)
				if err != nil {
					t.Fatal(err)
				}
				coordsEqual(t, name, got, want)
				resultsEqual(t, res, wantRes)

				opt3 := Options{MaxIters: 3, Tol: -1, Workers: workers}
				iopt3 := opt3
				iopt3.TetKernel, iopt3.TetMetric = ifaceKernel3{PlainKernel3{}}, ifaceTetMetric{quality.MeanRatio3{}}
				if smart {
					opt3.TetKernel = SmartKernel3{}
					iopt3.TetKernel = ifaceKernel3{SmartKernel3{Metric: ifaceTetMetric{quality.MeanRatio3{}}}}
				}
				want3, got3 := base3.Clone(), base3.Clone()
				wantRes3, err := RunTet(want3, opt3)
				if err != nil {
					t.Fatal(err)
				}
				res3, err := RunTet(got3, iopt3)
				if err != nil {
					t.Fatal(err)
				}
				coords3Equal(t, name+" 3D", got3, want3)
				resultsEqual(t, res3, wantRes3)
			})
		}
	}
}

// TestFastPathTracedRunsMatch pins that a traced run, which records each
// chunk's touches before updating it, produces the same results as the
// untraced run.
func TestFastPathTracedRunsMatch(t *testing.T) {
	base := genMesh(t, 1200)
	ref := base.Clone()
	refRes, err := Run(ref, Options{MaxIters: 3, Tol: -1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := base.Clone()
	tb := trace.NewBuffer(4)
	res, err := Run(got, Options{MaxIters: 3, Tol: -1, Workers: 4, Trace: tb})
	if err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, "traced vs untraced", got, ref)
	resultsEqual(t, res, refRes)
}

// TestSmartKernelMetricHoist pins the withDefaults hoist: an engine run
// with SmartKernel{} (nil metric, resolved once at setup) must match a run
// with the metric spelled out, in both dimensions.
func TestSmartKernelMetricHoist(t *testing.T) {
	base := genMesh(t, 900)
	implicit := base.Clone()
	resI, err := Run(implicit, Options{MaxIters: 4, Tol: -1, Kernel: SmartKernel{}})
	if err != nil {
		t.Fatal(err)
	}
	explicit := base.Clone()
	resE, err := Run(explicit, Options{MaxIters: 4, Tol: -1, Kernel: SmartKernel{Metric: quality.EdgeRatio{}}})
	if err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, "smart hoist", implicit, explicit)
	resultsEqual(t, resI, resE)

	base3 := genTetMesh(t, 6)
	implicit3 := base3.Clone()
	resI3, err := RunTet(implicit3, Options{MaxIters: 4, Tol: -1, TetKernel: SmartKernel3{}})
	if err != nil {
		t.Fatal(err)
	}
	explicit3 := base3.Clone()
	resE3, err := RunTet(explicit3, Options{MaxIters: 4, Tol: -1, TetKernel: SmartKernel3{Metric: quality.MeanRatio3{}}})
	if err != nil {
		t.Fatal(err)
	}
	coords3Equal(t, "smart hoist 3D", implicit3, explicit3)
	resultsEqual(t, resI3, resE3)
}

// TestSmartGenericAcceptMetricEquivalence pins the smart kernel with a
// non-default accept metric, whose accept test calls the metric through the
// interface: the run at every registered schedule and worker count (the
// sweep stays serial, the measurements parallelize) must be bit-identical to
// the serial run of the same configuration, in both dimensions.
func TestSmartGenericAcceptMetricEquivalence(t *testing.T) {
	base := genMesh(t, 900)
	base3 := genTetMesh(t, 5)
	opt := Options{MaxIters: 3, Tol: -1, Kernel: SmartKernel{Metric: quality.MinAngle{}}}
	opt3 := Options{MaxIters: 3, Tol: -1, TetKernel: SmartKernel3{Metric: quality.EdgeRatio3{}}}
	ref, ref3 := base.Clone(), base3.Clone()
	refRes, err := Run(ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	refRes3, err := RunTet(ref3, opt3)
	if err != nil {
		t.Fatal(err)
	}
	for _, schedule := range parallel.Schedules() {
		for _, workers := range fastPathWorkerCounts {
			name := fmt.Sprintf("%s/workers=%d", schedule, workers)
			t.Run(name, func(t *testing.T) {
				o, o3 := opt, opt3
				o.Schedule, o.Workers = schedule, workers
				o3.Schedule, o3.Workers = schedule, workers
				got, got3 := base.Clone(), base3.Clone()
				res, err := Run(got, o)
				if err != nil {
					t.Fatal(err)
				}
				coordsEqual(t, "smart generic accept metric", got, ref)
				resultsEqual(t, res, refRes)
				res3, err := RunTet(got3, o3)
				if err != nil {
					t.Fatal(err)
				}
				coords3Equal(t, "smart generic accept metric 3D", got3, ref3)
				resultsEqual(t, res3, refRes3)
			})
		}
	}
}

// TestCheckEverySemantics pins the documented CheckEvery contract: the
// smoothed coordinates are untouched (sweeps never read the measurement),
// the history records only the measured iterations, the final sweep is
// always measured, and the final quality is bit-identical to the
// measure-every-sweep run's.
func TestCheckEverySemantics(t *testing.T) {
	base := genMesh(t, 1200)
	const iters = 10
	ref := base.Clone()
	refRes, err := Run(ref, Options{MaxIters: iters, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 7, 10, 25} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			got := base.Clone()
			res, err := Run(got, Options{MaxIters: iters, Tol: -1, CheckEvery: k, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			coordsEqual(t, "check-every", got, ref)
			if res.Iterations != iters {
				t.Errorf("iterations = %d, want %d", res.Iterations, iters)
			}
			// Measured iterations: every k-th sweep plus the final one.
			wantMeasured := iters / k
			if iters%k != 0 {
				wantMeasured++
			}
			if len(res.QualityHistory) != wantMeasured {
				t.Errorf("history length = %d, want %d", len(res.QualityHistory), wantMeasured)
			}
			if res.FinalQuality != refRes.FinalQuality {
				t.Errorf("final quality = %v, want bit-identical %v", res.FinalQuality, refRes.FinalQuality)
			}
			// Each measured value must equal the every-sweep run's value at
			// the same iteration.
			for i, q := range res.QualityHistory {
				iter := (i + 1) * k
				if iter > iters {
					iter = iters
				}
				if q != refRes.QualityHistory[iter-1] {
					t.Errorf("history[%d] = %v, want bit-identical %v (iteration %d)", i, q, refRes.QualityHistory[iter-1], iter)
				}
			}
		})
	}
}

// TestCheckEverySemantics3 spot-checks the 3D engine's CheckEvery wiring.
func TestCheckEverySemantics3(t *testing.T) {
	base := genTetMesh(t, 6)
	const iters = 7
	ref := base.Clone()
	refRes, err := RunTet(ref, Options{MaxIters: iters, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := base.Clone()
	res, err := RunTet(got, Options{MaxIters: iters, Tol: -1, CheckEvery: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	coords3Equal(t, "check-every 3D", got, ref)
	if len(res.QualityHistory) != 3 { // iterations 3, 6, and the final 7th
		t.Errorf("history length = %d, want 3", len(res.QualityHistory))
	}
	if res.FinalQuality != refRes.FinalQuality {
		t.Errorf("final quality = %v, want bit-identical %v", res.FinalQuality, refRes.FinalQuality)
	}
}

// TestCheckEveryConvergenceStops verifies the tolerance still stops a
// CheckEvery run: the criterion applies to the improvement since the
// previous measurement, so a converged mesh stops at the first measured
// iteration instead of running the full cap.
func TestCheckEveryConvergenceStops(t *testing.T) {
	m := genMesh(t, 800)
	// Converge well past the default criterion first: the CheckEvery run's
	// measured improvement spans 4 sweeps, so the per-sweep improvement must
	// be safely below Tol/4 for the first measurement to stop it.
	if _, err := Run(m, Options{MaxIters: 500, Tol: DefaultTol / 16}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, Options{MaxIters: 50, CheckEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 4 {
		t.Errorf("converged mesh ran %d iterations with CheckEvery=4, want <= 4", res.Iterations)
	}
}

// TestCheckEveryRejectsNegative pins the validation in both engines.
func TestCheckEveryRejectsNegative(t *testing.T) {
	if _, err := Run(genMesh(t, 300), Options{CheckEvery: -2}); err == nil {
		t.Error("2D engine accepted negative CheckEvery")
	}
	if _, err := RunTet(genTetMesh(t, 4), Options{CheckEvery: -2}); err == nil {
		t.Error("3D engine accepted negative CheckEvery")
	}
}

// TestConvergeSteadyStateAllocs pins the steady-state allocation budget of
// the full converge loop WITH the parallel quality reduction: after warmup,
// each Run must stay within one request-scoped allocation per sweep (the
// chunk-body closure) plus the quality-history slice — the parallel
// measurement passes themselves (prebuilt bodies, reducer scratch, spawner
// reuse) must add nothing. The bound is deliberately loose enough for
// -race builds.
func TestConvergeSteadyStateAllocs(t *testing.T) {
	base := genMesh(t, 4000)
	ctx := context.Background()
	const iters = 3
	for _, schedule := range parallel.Schedules() {
		t.Run(schedule, func(t *testing.T) {
			m := base.Clone()
			s := NewSmoother()
			opt := Options{MaxIters: iters, Tol: -1, Traversal: StorageOrder, Workers: 8, Schedule: schedule}
			if _, err := s.Run(ctx, m, opt); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := s.Run(ctx, m, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > float64(2*iters+4) {
				t.Errorf("schedule %s: %.0f allocs per steady-state %d-iteration converge loop, want <= %d",
					schedule, allocs, iters, 2*iters+4)
			}
		})
	}
}

// TestSmartConvergeSteadyStateAllocs pins the smart-kernel (in-place)
// steady-state budget in both dimensions: the serial accept-test sweep
// writes the mesh directly, so a warm Run adds nothing beyond the history
// slice and the measurement pass's per-sweep closures — the same budget as
// the Jacobi engines.
func TestSmartConvergeSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	const iters = 3
	t.Run("dim=2", func(t *testing.T) {
		m := genMesh(t, 4000)
		s := NewSmoother()
		opt := Options{MaxIters: iters, Tol: -1, Traversal: StorageOrder, Workers: 8, Kernel: SmartKernel{}}
		if _, err := s.Run(ctx, m, opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.Run(ctx, m, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(2*iters+4) {
			t.Errorf("%.0f allocs per steady-state %d-iteration smart converge loop, want <= %d", allocs, iters, 2*iters+4)
		}
	})
	t.Run("dim=3", func(t *testing.T) {
		m := genTetMesh(t, 8)
		s := NewSmoother()
		opt := Options{MaxIters: iters, Tol: -1, Traversal: StorageOrder, Workers: 8, TetKernel: SmartKernel3{}}
		if _, err := s.RunTet(ctx, m, opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.RunTet(ctx, m, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(2*iters+4) {
			t.Errorf("%.0f allocs per steady-state %d-iteration smart converge loop, want <= %d", allocs, iters, 2*iters+4)
		}
	})
}
