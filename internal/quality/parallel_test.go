package quality

import (
	"context"
	"fmt"
	"testing"

	"lams/internal/mesh"
	"lams/internal/parallel"
)

func genQualMesh(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Generate("carabiner", n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func genQualTetMesh(t testing.TB, cells int) *mesh.TetMesh {
	t.Helper()
	m, err := mesh.GenerateTetCube(cells, cells, cells, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ifaceMetric and ifaceTetMetric hide a metric's concrete type, so the
// passes that call the default metrics directly take their interface case
// instead.
type ifaceMetric struct{ Metric }

type ifaceTetMetric struct{ TetMetric }

// TestGlobalParallelEquivalence is the measurement-side determinism
// harness: for every built-in metric, every registered schedule, and
// workers 1–16, the parallel global quality and per-vertex qualities must
// be bit-identical to the serial Scratch pass, to the package-level
// functions, to the interface-dispatch pass, and (per vertex) to
// VertexQuality through either dispatch. The mesh spans several
// ReduceBlock tiles, so the ordered reduction's block combination is
// actually exercised.
func TestGlobalParallelEquivalence(t *testing.T) {
	m := genQualMesh(t, 6000)
	ctx := context.Background()
	for _, met := range []Metric{EdgeRatio{}, MinAngle{}, AspectRatio{}} {
		var ref Scratch
		wantG := ref.Global(m, met)
		wantV := append([]float64(nil), ref.VertexQualities(m, met)...)
		if pkgG := Global(m, met); pkgG != wantG {
			t.Fatalf("%s: package Global = %v, Scratch.Global = %v (want bit-identical)", met.Name(), pkgG, wantG)
		}
		var iface Scratch
		if ig := iface.Global(m, ifaceMetric{met}); ig != wantG {
			t.Fatalf("%s: interface-dispatch Global = %v, want bit-identical %v", met.Name(), ig, wantG)
		}
		for v := range wantV {
			q, iq := VertexQuality(m, met, int32(v)), VertexQuality(m, ifaceMetric{met}, int32(v))
			if q != wantV[v] || iq != wantV[v] {
				t.Fatalf("%s: VertexQuality(%d) = %v (interface %v), want bit-identical %v", met.Name(), v, q, iq, wantV[v])
			}
		}
		for _, schedule := range parallel.Schedules() {
			for _, workers := range []int{1, 2, 4, 8, 16} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", met.Name(), schedule, workers), func(t *testing.T) {
					sched, err := parallel.SchedulerByName(schedule)
					if err != nil {
						t.Fatal(err)
					}
					var s Scratch
					g, err := s.GlobalParallel(ctx, m, met, workers, sched)
					if err != nil {
						t.Fatal(err)
					}
					if g != wantG {
						t.Errorf("GlobalParallel = %v, want bit-identical %v", g, wantG)
					}
					vq, err := s.VertexQualitiesParallel(ctx, m, met, workers, sched)
					if err != nil {
						t.Fatal(err)
					}
					for v := range wantV {
						if vq[v] != wantV[v] {
							t.Fatalf("vertex %d quality = %v, want bit-identical %v", v, vq[v], wantV[v])
						}
					}
				})
			}
		}
	}
}

// TestTetGlobalParallelEquivalence is the 3D twin of
// TestGlobalParallelEquivalence.
func TestTetGlobalParallelEquivalence(t *testing.T) {
	m := genQualTetMesh(t, 14) // 3375 verts, several ReduceBlock tiles
	ctx := context.Background()
	for _, met := range []TetMetric{MeanRatio3{}, EdgeRatio3{}} {
		var ref Scratch
		wantG := ref.TetGlobal(m, met)
		wantV := append([]float64(nil), ref.TetVertexQualities(m, met)...)
		if pkgG := TetGlobal(m, met); pkgG != wantG {
			t.Fatalf("%s: package TetGlobal = %v, Scratch.TetGlobal = %v (want bit-identical)", met.Name(), pkgG, wantG)
		}
		var iface Scratch
		if ig := iface.TetGlobal(m, ifaceTetMetric{met}); ig != wantG {
			t.Fatalf("%s: interface-dispatch TetGlobal = %v, want bit-identical %v", met.Name(), ig, wantG)
		}
		for v := range wantV {
			q, iq := TetVertexQuality(m, met, int32(v)), TetVertexQuality(m, ifaceTetMetric{met}, int32(v))
			if q != wantV[v] || iq != wantV[v] {
				t.Fatalf("%s: TetVertexQuality(%d) = %v (interface %v), want bit-identical %v", met.Name(), v, q, iq, wantV[v])
			}
		}
		for _, schedule := range parallel.Schedules() {
			for _, workers := range []int{1, 2, 4, 8, 16} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", met.Name(), schedule, workers), func(t *testing.T) {
					sched, err := parallel.SchedulerByName(schedule)
					if err != nil {
						t.Fatal(err)
					}
					var s Scratch
					g, err := s.TetGlobalParallel(ctx, m, met, workers, sched)
					if err != nil {
						t.Fatal(err)
					}
					if g != wantG {
						t.Errorf("TetGlobalParallel = %v, want bit-identical %v", g, wantG)
					}
					vq, err := s.TetVertexQualitiesParallel(ctx, m, met, workers, sched)
					if err != nil {
						t.Fatal(err)
					}
					for v := range wantV {
						if vq[v] != wantV[v] {
							t.Fatalf("vertex %d quality = %v, want bit-identical %v", v, vq[v], wantV[v])
						}
					}
				})
			}
		}
	}
}

// TestGlobalParallelMixedDimensions reuses one Scratch alternately for 2D
// and 3D parallel measurements — the shape lamsd's pooled engines see when
// one Smoother serves both mesh kinds — and checks neither leaks state
// into the other.
func TestGlobalParallelMixedDimensions(t *testing.T) {
	m2 := genQualMesh(t, 2500)
	m3 := genQualTetMesh(t, 9)
	ctx := context.Background()
	var ref Scratch
	want2 := ref.Global(m2, EdgeRatio{})
	want3 := ref.TetGlobal(m3, MeanRatio3{})
	sched, err := parallel.SchedulerByName(parallel.ScheduleStealing)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for i := 0; i < 3; i++ {
		g2, err := s.GlobalParallel(ctx, m2, EdgeRatio{}, 8, sched)
		if err != nil {
			t.Fatal(err)
		}
		if g2 != want2 {
			t.Fatalf("round %d: 2D quality = %v, want %v", i, g2, want2)
		}
		g3, err := s.TetGlobalParallel(ctx, m3, MeanRatio3{}, 8, sched)
		if err != nil {
			t.Fatal(err)
		}
		if g3 != want3 {
			t.Fatalf("round %d: 3D quality = %v, want %v", i, g3, want3)
		}
	}
}

// TestGlobalParallelCancellation checks a canceled context surfaces as
// ctx.Err() from the parallel pass.
func TestGlobalParallelCancellation(t *testing.T) {
	m := genQualMesh(t, 2000)
	sched, err := parallel.SchedulerByName(parallel.ScheduleStatic)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var s Scratch
	if _, err := s.GlobalParallel(ctx, m, EdgeRatio{}, 4, sched); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGlobalParallelSteadyStateAllocs pins the parallel measurement pass's
// steady-state allocation budget: after the scratch buffers have grown and
// the pass bodies are prebuilt, repeated parallel measurements must stay at
// (essentially) zero allocations — the property that keeps the converge
// loop's steady state at today's near-zero overall budget.
func TestGlobalParallelSteadyStateAllocs(t *testing.T) {
	m := genQualMesh(t, 6000)
	m3 := genQualTetMesh(t, 12)
	ctx := context.Background()
	for _, schedule := range parallel.Schedules() {
		t.Run(schedule, func(t *testing.T) {
			sched, err := parallel.SchedulerByName(schedule)
			if err != nil {
				t.Fatal(err)
			}
			var s Scratch
			if _, err := s.GlobalParallel(ctx, m, EdgeRatio{}, 8, sched); err != nil {
				t.Fatal(err)
			}
			if _, err := s.TetGlobalParallel(ctx, m3, MeanRatio3{}, 8, sched); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := s.GlobalParallel(ctx, m, EdgeRatio{}, 8, sched); err != nil {
					t.Fatal(err)
				}
				if _, err := s.TetGlobalParallel(ctx, m3, MeanRatio3{}, 8, sched); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Errorf("schedule %s: %.0f allocs per steady-state 2D+3D parallel measurement, want <= 2", schedule, allocs)
			}
		})
	}
}

// TestGlobalParallelRaceStress hammers the parallel quality passes under
// the stealing schedule with oversubscribed workers — the CI -race leg runs
// this repeatedly so steal interleavings that partition the block range
// differently every time get their chances to trip the detector. Values
// must stay bit-identical throughout.
func TestGlobalParallelRaceStress(t *testing.T) {
	m := genQualMesh(t, 4000)
	m3 := genQualTetMesh(t, 10)
	ctx := context.Background()
	sched, err := parallel.SchedulerByName(parallel.ScheduleStealing)
	if err != nil {
		t.Fatal(err)
	}
	var ref Scratch
	want2 := ref.Global(m, EdgeRatio{})
	want3 := ref.TetGlobal(m3, MeanRatio3{})
	var s Scratch
	for i := 0; i < 30; i++ {
		g2, err := s.GlobalParallel(ctx, m, EdgeRatio{}, 16, sched)
		if err != nil {
			t.Fatal(err)
		}
		if g2 != want2 {
			t.Fatalf("round %d: 2D quality = %v, want bit-identical %v", i, g2, want2)
		}
		g3, err := s.TetGlobalParallel(ctx, m3, MeanRatio3{}, 16, sched)
		if err != nil {
			t.Fatal(err)
		}
		if g3 != want3 {
			t.Fatalf("round %d: 3D quality = %v, want bit-identical %v", i, g3, want3)
		}
	}
}
