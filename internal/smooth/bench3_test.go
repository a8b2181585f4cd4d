package smooth

import (
	"context"
	"fmt"
	"testing"

	"lams/internal/mesh"
)

// convergedBenchCells is the cells-per-axis of the 3D converge-loop
// benchmark cube: 40^3 cells (68921 vertices, 384000 tets), the 3D
// acceptance workload mirroring BenchmarkRunConverged's 2D mesh.
const convergedBenchCells = 40

// BenchmarkRunSmart3 is the 3D twin of BenchmarkRunSmart: the smart-kernel
// accept test recomputes the mean-ratio of every incident tet twice per
// vertex visit, so the accept test dominates the sweep.
func BenchmarkRunSmart3(b *testing.B) {
	base, err := mesh.GenerateTetCube(16, 16, 16, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := base.Clone()
			s := NewSmoother()
			opt := Options{
				MaxIters: 4, Tol: -1, Traversal: StorageOrder,
				TetKernel: SmartKernel3{}, Workers: workers,
			}
			if _, err := s.RunTet(ctx, m, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunTet(ctx, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunConverged3 is the 3D twin of BenchmarkRunConverged: the full
// sweep+measure convergence loop on the jittered Kuhn-split cube, across
// worker counts. The per-iteration mean-ratio pass over the tets is even
// more expensive relative to the sweep than in 2D (six tets per interior
// vertex, a cbrt per tet), so this is where the parallel measurement pays
// most.
func BenchmarkRunConverged3(b *testing.B) {
	base, err := mesh.GenerateTetCube(convergedBenchCells, convergedBenchCells, convergedBenchCells, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := base.Clone()
			s := NewSmoother()
			opt := Options{MaxIters: 10, Tol: -1, Traversal: StorageOrder, Workers: workers}
			if _, err := s.RunTet(ctx, m, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunTet(ctx, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
