// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one benchmark per artifact, plus the ablation benches called out in
// DESIGN.md §5. Benchmarks report the headline quantities of each artifact
// as custom metrics so `go test -bench=.` output doubles as a compact
// reproduction record.
package lams_test

import (
	"context"
	"sync"
	"testing"

	"lams/internal/cache"
	"lams/internal/experiments"
	"lams/internal/improve"
	"lams/internal/order"
	"lams/internal/quality"
	"lams/internal/reuse"
	"lams/internal/smooth"
	"lams/internal/trace"
	"lams/pkg/lams"
)

// benchVerts keeps the benchmark meshes small enough that the full suite
// runs in minutes on one core; cmd/lamsbench -full restores paper scale.
const benchVerts = 8000

var (
	suiteOnce sync.Once
	suiteVal  *experiments.Suite
)

// benchSuite returns a shared experiment suite over three representative
// meshes (building all nine for every benchmark would dominate run time).
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := experiments.ConfigForSize(benchVerts)
		cfg.Meshes = []string{"carabiner", "crake", "ocean"}
		cfg.CoreCounts = []int{1, 2, 4, 8, 16, 24, 32}
		suiteVal = experiments.NewSuite(cfg)
	})
	return suiteVal
}

// BenchmarkTable1MeshGeneration regenerates Table 1: the mesh generation
// pipeline (domain sampling, Delaunay triangulation, carving).
func BenchmarkTable1MeshGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := lams.GenerateMesh("carabiner", benchVerts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.NumVerts()), "verts")
		b.ReportMetric(float64(m.NumTris()), "tris")
	}
}

// BenchmarkFig1ReuseProfiles regenerates Figure 1: reuse-distance analysis
// of the first smoothing iteration under RANDOM/ORI/BFS.
func BenchmarkFig1ReuseProfiles(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		for _, se := range r.Series {
			if se.Ordering == "BFS" {
				b.ReportMetric(se.MeanReuse, "bfs-mean-reuse")
			}
		}
	}
}

// BenchmarkFig6IterationProfile regenerates Figure 6: per-iteration reuse
// profiles and their cross-iteration correlation.
func BenchmarkFig6IterationProfile(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Correlation, "iter-correlation")
	}
}

// BenchmarkFig8SerialSmoothing regenerates Figure 8 with real wall-clock
// runs of the smoother on this host: one sub-benchmark per ordering, so the
// reported ns/op ARE the Figure 8 bars.
func BenchmarkFig8SerialSmoothing(b *testing.B) {
	m, err := lams.GenerateMesh("carabiner", benchVerts)
	if err != nil {
		b.Fatal(err)
	}
	for _, ordName := range []string{"ORI", "BFS", "RDR"} {
		re, err := lams.Reorder(m, ordName)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ordName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clone := re.Mesh.Clone()
				res, err := smooth.Run(clone, smooth.Options{MaxIters: 8, Tol: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalQuality, "quality")
			}
		})
	}
}

// BenchmarkFig9CacheSim regenerates Figures 9a-c: the simulated cache miss
// rates of the serial run, reporting the RDR miss reductions.
func BenchmarkFig9CacheSim(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.ReductionVsORI[1], "L2-reduction-vs-ORI-%")
		b.ReportMetric(100*r.ReductionVsBFS[1], "L2-reduction-vs-BFS-%")
	}
}

// BenchmarkTable2Quantiles regenerates Table 2: reuse-distance quantiles of
// the first iteration for all meshes and orderings.
func BenchmarkTable2Quantiles(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Mesh == "carabiner" && row.Ordering == "RDR" {
				b.ReportMetric(float64(row.Quantiles[2]), "rdr-q90")
			}
		}
	}
}

// BenchmarkTable3MissEstimation regenerates Table 3: per-level miss counts
// and inferred cache capacities.
func BenchmarkTable3MissEstimation(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq2PenaltyCycles regenerates the §5.2.2 Eq. (2) worked example.
func BenchmarkEq2PenaltyCycles(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Eq2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Cycles["ORI"]/r.Cycles["RDR"], "ori-over-rdr")
	}
}

// BenchmarkFig10to13Scaling regenerates the scalability study behind
// Figures 10, 12 and 13 (1..32 modeled cores, three orderings).
func BenchmarkFig10to13Scaling(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Scaling()
		if err != nil {
			b.Fatal(err)
		}
		mean := r.MeanSpeedups()
		last := len(r.Cores) - 1
		b.ReportMetric(mean["RDR"][last], "rdr-speedup-32c")
		b.ReportMetric(100*r.Gains()["ORI"][last], "gain-vs-ori-32c-%")
	}
}

// BenchmarkFig11AccessCounts regenerates Figure 11: accesses per memory
// level as a function of core count.
func BenchmarkFig11AccessCounts(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostReordering regenerates the §5.4 reordering-cost analysis.
func BenchmarkCostReordering(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Cost()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].BreakEvenIters, "break-even-iters")
	}
}

// ---------------------------------------------------------------- ablations

// benchMeshAndQuality builds the shared ablation inputs.
func benchMeshAndQuality(b *testing.B) (*experiments.Suite, []float64) {
	s := benchSuite(b)
	m, err := s.Mesh("carabiner")
	if err != nil {
		b.Fatal(err)
	}
	return s, quality.VertexQualities(m, quality.EdgeRatio{})
}

// penaltyFor runs the full pipeline (order, renumber, trace one iteration,
// simulate) and returns the Eq. (2) penalty cycles for an ordering.
func penaltyFor(b *testing.B, s *experiments.Suite, ord order.Ordering, cfg cache.Config) float64 {
	b.Helper()
	m, err := s.Mesh("carabiner")
	if err != nil {
		b.Fatal(err)
	}
	re, err := lams.ReorderWith(m, ord)
	if err != nil {
		b.Fatal(err)
	}
	_, tb, err := lams.SmoothTraced(context.Background(), re.Mesh.Clone(), 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := cache.NewSim(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.RunTrace(tb); err != nil {
		b.Fatal(err)
	}
	return sim.CorePenaltyCycles(0)
}

// BenchmarkAblationRDRSeed compares RDR's worst-first seed sweep against the
// best-first variant (DESIGN.md §5: does "worst-first" matter, or only the
// walk-matching grouping?).
func BenchmarkAblationRDRSeed(b *testing.B) {
	s := benchSuite(b)
	cfg := cache.Scaled(benchVerts)
	for i := 0; i < b.N; i++ {
		asc := penaltyFor(b, s, order.RDR{}, cfg)
		desc := penaltyFor(b, s, order.RDR{SortDescending: true}, cfg)
		b.ReportMetric(desc/asc, "desc-over-asc-penalty")
	}
}

// BenchmarkAblationRDRMetric drives RDR with min-angle instead of
// edge-length-ratio quality.
func BenchmarkAblationRDRMetric(b *testing.B) {
	s := benchSuite(b)
	m, err := s.Mesh("carabiner")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cache.Scaled(benchVerts)
	for i := 0; i < b.N; i++ {
		var penalties []float64
		for _, met := range []quality.Metric{quality.EdgeRatio{}, quality.MinAngle{}} {
			vq := quality.VertexQualities(m, met)
			perm, err := (order.RDR{}).Compute(m, vq)
			if err != nil {
				b.Fatal(err)
			}
			rm, err := m.Renumber(perm)
			if err != nil {
				b.Fatal(err)
			}
			_, tb, err := lams.SmoothTraced(context.Background(), rm, 1, 2)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := cache.NewSim(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.RunTrace(tb); err != nil {
				b.Fatal(err)
			}
			penalties = append(penalties, sim.CorePenaltyCycles(0))
		}
		b.ReportMetric(penalties[1]/penalties[0], "minangle-over-edgeratio")
	}
}

// BenchmarkAblationBFSRoot compares BFS rooted at vertex 0 against BFS
// rooted at the worst-quality vertex.
func BenchmarkAblationBFSRoot(b *testing.B) {
	s := benchSuite(b)
	cfg := cache.Scaled(benchVerts)
	for i := 0; i < b.N; i++ {
		zero := penaltyFor(b, s, order.BFS{}, cfg)
		worst := penaltyFor(b, s, order.BFS{WorstQualityRoot: true}, cfg)
		b.ReportMetric(worst/zero, "worstroot-over-zeroroot")
	}
}

// BenchmarkAblationStride varies the vertex record size: 16 B (coordinate
// pair, 4 records/line), 32 B, and the paper's 66 B estimate (straddling).
func BenchmarkAblationStride(b *testing.B) {
	s := benchSuite(b)
	for _, stride := range []int64{16, 32, 66} {
		stride := stride
		b.Run(map[int64]string{16: "16B", 32: "32B", 66: "66B"}[stride], func(b *testing.B) {
			cfg := cache.Scaled(benchVerts)
			cfg.VertexStrideBytes = stride
			for i := 0; i < b.N; i++ {
				ori := penaltyFor(b, s, order.Original{}, cfg)
				rdr := penaltyFor(b, s, order.RDR{}, cfg)
				b.ReportMetric(ori/rdr, "ori-over-rdr-penalty")
			}
		})
	}
}

// BenchmarkAblationAssoc compares the real 8/8/24-way hierarchy against a
// direct-mapped and a fully-associative variant (the §3.1 theoretical
// model assumes full associativity).
func BenchmarkAblationAssoc(b *testing.B) {
	s := benchSuite(b)
	for _, mode := range []string{"direct", "real", "full"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			cfg := cache.Scaled(benchVerts)
			for li := range cfg.Levels {
				lv := &cfg.Levels[li]
				switch mode {
				case "direct":
					lv.Assoc = 1
				case "full":
					lv.Assoc = int(lv.SizeBytes / cfg.LineBytes)
				}
			}
			for i := 0; i < b.N; i++ {
				rdr := penaltyFor(b, s, order.RDR{}, cfg)
				b.ReportMetric(rdr/1e6, "rdr-penalty-Mcycles")
			}
		})
	}
}

// BenchmarkAblationTraversal compares the paper's quality-greedy traversal
// against a plain storage-order sweep under the RDR layout.
func BenchmarkAblationTraversal(b *testing.B) {
	s := benchSuite(b)
	m, err := s.Reordered("carabiner", "RDR")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cache.Scaled(benchVerts)
	for _, trav := range []smooth.Traversal{smooth.QualityGreedy, smooth.StorageOrder} {
		trav := trav
		b.Run(trav.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb := trace.NewBuffer(1)
				if _, err := smooth.Run(m.Clone(), smooth.Options{
					MaxIters: 2, Tol: -1, Traversal: trav, Trace: tb,
				}); err != nil {
					b.Fatal(err)
				}
				sim, err := cache.NewSim(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.RunTrace(tb); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sim.CorePenaltyCycles(0)/1e6, "penalty-Mcycles")
			}
		})
	}
}

// BenchmarkExtensionCPack regenerates the CPACK-oracle comparison: how
// close RDR's a-priori layout comes to the trace-driven first-touch packing.
func BenchmarkExtensionCPack(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.CPack()
		if err != nil {
			b.Fatal(err)
		}
		var rdr, cpack float64
		for _, row := range r.Rows {
			switch row.Ordering {
			case "RDR":
				rdr = row.MeanReuse
			case "CPACK":
				cpack = row.MeanReuse
			}
		}
		b.ReportMetric(rdr/cpack, "rdr-over-oracle-reuse")
	}
}

// BenchmarkExtensionPrefetch regenerates the next-line prefetcher study.
func BenchmarkExtensionPrefetch(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Prefetch()
		if err != nil {
			b.Fatal(err)
		}
		var rdrOff, rdrOn int64
		for _, row := range r.Rows {
			if row.Ordering == "RDR" {
				if row.Degree == 0 {
					rdrOff = row.L1Misses
				} else {
					rdrOn = row.L1Misses
				}
			}
		}
		b.ReportMetric(100*float64(rdrOff-rdrOn)/float64(rdrOff), "rdr-miss-cut-%")
	}
}

// BenchmarkExtensionMRC regenerates the miss-ratio-curve sweep.
func BenchmarkExtensionMRC(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.MRC(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionVariants regenerates the §6-conjecture study (RDR under
// smart/weighted/constrained smoothing).
func BenchmarkExtensionVariants(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Variants()
		if err != nil {
			b.Fatal(err)
		}
		var ori, rdr float64
		for _, row := range r.Rows {
			if row.Variant == "smart" {
				if row.Ordering == "ORI" {
					ori = row.PenaltyCycles
				} else {
					rdr = row.PenaltyCycles
				}
			}
		}
		b.ReportMetric(ori/rdr, "smart-ori-over-rdr")
	}
}

// BenchmarkImproveSwapEdges measures the edge-swapping pass.
func BenchmarkImproveSwapEdges(b *testing.B) {
	s := benchSuite(b)
	m, err := s.Mesh("carabiner")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := improve.SwapEdges(m, quality.EdgeRatio{}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderingsCompute measures the pure reordering cost (§5.4) of
// each ordering, excluding smoothing.
func BenchmarkOrderingsCompute(b *testing.B) {
	m, err := lams.GenerateMesh("carabiner", benchVerts)
	if err != nil {
		b.Fatal(err)
	}
	vq := quality.VertexQualities(m, quality.EdgeRatio{})
	for _, name := range order.Names() {
		ord, err := order.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ord.Compute(m, vq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReuseDistanceAnalyzer measures the Fenwick-tree stack-distance
// computation on a real trace.
func BenchmarkReuseDistanceAnalyzer(b *testing.B) {
	s := benchSuite(b)
	stream, err := s.FirstIterStream("carabiner", "ORI")
	if err != nil {
		b.Fatal(err)
	}
	blocks := reuse.Blocks(stream, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reuse.StackDistances(blocks)
	}
}

// BenchmarkParallelSmoothing measures real wall-clock smoothing at several
// goroutine counts (on this host; the paper-scale 32-core curve is modeled
// by BenchmarkFig10to13Scaling).
func BenchmarkParallelSmoothing(b *testing.B) {
	m, err := lams.GenerateMesh("ocean", benchVerts)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(map[int]string{1: "1worker", 2: "2workers", 4: "4workers"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := smooth.Run(m.Clone(), smooth.Options{
					MaxIters: 4, Tol: -1, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
