package smooth

import (
	"context"
	"fmt"
	"testing"

	"lams/internal/geom"
	"lams/internal/mesh"
	"lams/internal/order"
	"lams/internal/parallel"
	"lams/internal/quality"
)

// benchMeshVerts is the mid-size mesh the sweep benchmarks run on — large
// enough that memory layout matters, small enough for quick iteration.
const benchMeshVerts = 20000

func benchMesh(b *testing.B) *mesh.Mesh {
	b.Helper()
	m, err := mesh.Generate("carabiner", benchMeshVerts)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkSweepPerOrdering measures one storage-order Jacobi sweep of the
// unified engine per vertex ordering: ns/op exposes each layout's locality,
// and allocs/op shows the engine's steady-state buffer reuse (the visit and
// next arrays are allocated once per Smoother, not once per run).
func BenchmarkSweepPerOrdering(b *testing.B) {
	base := benchMesh(b)
	vq := quality.VertexQualities(base, quality.EdgeRatio{})
	ctx := context.Background()
	for _, name := range []string{"ORI", "RANDOM", "BFS", "RCM", "HILBERT", "RDR"} {
		ord, err := order.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		perm, err := ord.Compute(base, vq)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := base.Renumber(perm)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			m := rm.Clone()
			s := NewSmoother()
			opt := Options{MaxIters: 1, Tol: -1, Traversal: StorageOrder}
			if _, err := s.Run(ctx, m, opt); err != nil { // warm the buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepWorkers measures the parallel Jacobi sweep at several
// worker counts on the RDR-ordered mesh.
func BenchmarkSweepWorkers(b *testing.B) {
	base := benchMesh(b)
	vq := quality.VertexQualities(base, quality.EdgeRatio{})
	ord, err := order.ByName("RDR")
	if err != nil {
		b.Fatal(err)
	}
	perm, err := ord.Compute(base, vq)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := base.Renumber(perm)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := rm.Clone()
			s := NewSmoother()
			opt := Options{MaxIters: 1, Tol: -1, Traversal: StorageOrder, Workers: workers}
			if _, err := s.Run(ctx, m, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// skewedBenchKernel models the irregular meshes the schedules exist for:
// the vertices in the leading hot fraction of the array cost ~16x a plain
// update (think a refinement region packed together by a locality
// ordering). Under the static schedule the workers owning the hot chunks
// straggle while the rest idle; guided and stealing redistribute the tail.
// The kernel stays Jacobi-pure, so results remain bit-identical — only the
// load profile is skewed.
type skewedBenchKernel struct {
	hot   int32
	inner PlainKernel
}

func (k skewedBenchKernel) Name() string  { return "skewed" }
func (k skewedBenchKernel) InPlace() bool { return false }

func (k skewedBenchKernel) Update(m *mesh.Mesh, v int32) geom.Point {
	p := k.inner.Update(m, v)
	if v < k.hot {
		for i := 0; i < 15; i++ {
			p = k.inner.Update(m, v)
		}
	}
	return p
}

// BenchmarkSweepSchedules compares the registered chunk schedules across
// worker counts on two workloads: uniform (every vertex costs the same —
// static's best case, any scheduling overhead shows up directly) and skewed
// (a 16x-hot leading quarter — static straggles and the dynamic schedules'
// balance pays). ns/op is the locality-vs-balance tradeoff as a measured
// number; allocs/op is the steady-state scratch-reuse guarantee (engine and
// scheduler buffers were grown by the warmup run, so every schedule must
// stay within the few request-scoped allocations).
func BenchmarkSweepSchedules(b *testing.B) {
	base := benchMesh(b)
	ctx := context.Background()
	workloads := []struct {
		name string
		kern Kernel
	}{
		{"uniform", PlainKernel{}},
		{"skewed", skewedBenchKernel{hot: int32(len(base.Coords) / 4)}},
	}
	for _, wl := range workloads {
		for _, schedule := range parallel.Schedules() {
			for _, workers := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", wl.name, schedule, workers), func(b *testing.B) {
					m := base.Clone()
					s := NewSmoother()
					opt := Options{
						MaxIters: 1, Tol: -1, Traversal: StorageOrder,
						Workers: workers, Schedule: schedule, Kernel: wl.kern,
					}
					if _, err := s.Run(ctx, m, opt); err != nil { // warm engine + scheduler scratch
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := s.Run(ctx, m, opt); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// convergedBenchVerts is the 512x512-grid-equivalent mesh size of the full
// converge-loop benchmark (the acceptance workload of the measurement
// parallelization): large enough that the per-iteration quality pass is a
// real fraction of the sweep, matching the paper's mesh magnitudes.
const convergedBenchVerts = 262144

// BenchmarkRunConverged measures the FULL convergence loop — sweep plus
// global quality measurement per iteration, the whole of Algorithm 1 — not
// just one sweep, across worker counts. Both halves run on the workers:
// the Jacobi chunks and the parallel ordered quality reduction. Results are
// bit-identical between all cells by construction.
func BenchmarkRunConverged(b *testing.B) {
	base, err := mesh.Generate("carabiner", convergedBenchVerts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := base.Clone()
			s := NewSmoother()
			opt := Options{MaxIters: 10, Tol: -1, Traversal: StorageOrder, Workers: workers}
			if _, err := s.Run(ctx, m, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunSmart measures the smart-kernel convergence loop: the serial
// in-place sweep, whose accept test evaluates the default metric on every
// incident triangle twice per vertex visit, plus the quality measurements,
// which parallelize across the workers.
func BenchmarkRunSmart(b *testing.B) {
	base := benchMesh(b)
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := base.Clone()
			s := NewSmoother()
			opt := Options{
				MaxIters: 4, Tol: -1, Traversal: StorageOrder,
				Kernel: SmartKernel{}, Workers: workers,
			}
			if _, err := s.Run(ctx, m, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepKernels measures one sweep per update kernel, all through
// the same engine path.
func BenchmarkSweepKernels(b *testing.B) {
	base := benchMesh(b)
	kernels := []Kernel{PlainKernel{}, SmartKernel{}, WeightedKernel{}, ConstrainedKernel{MaxDisplacement: 0.05}}
	ctx := context.Background()
	for _, kern := range kernels {
		b.Run(kern.Name(), func(b *testing.B) {
			m := base.Clone()
			s := NewSmoother()
			opt := Options{MaxIters: 1, Tol: -1, Traversal: StorageOrder, Kernel: kern}
			if _, err := s.Run(ctx, m, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSmootherFreshVsReused quantifies the scratch-buffer win: a fresh
// engine per run reallocates the next-coordinate array every time, a held
// Smoother does not.
func BenchmarkSmootherFreshVsReused(b *testing.B) {
	base := benchMesh(b)
	ctx := context.Background()
	opt := Options{MaxIters: 1, Tol: -1, Traversal: StorageOrder}
	b.Run("fresh", func(b *testing.B) {
		m := base.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewSmoother().Run(ctx, m, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		m := base.Clone()
		s := NewSmoother()
		if _, err := s.Run(ctx, m, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(ctx, m, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
