package lams

import (
	"context"
	"fmt"
	"time"

	"lams/internal/cache"
	"lams/internal/geom"
	"lams/internal/mesh"
	"lams/internal/order"
	"lams/internal/quality"
	"lams/internal/reuse"
	"lams/internal/smooth"
)

// The tetrahedral surface of the library: the same build -> order -> smooth
// -> analyze pipeline as the 2D API, over 3D meshes. Orderings come from
// the same registry (they traverse the shared adjacency abstraction), the
// smoothing engine shares the chunk schedulers and tracing, and the
// locality analysis runs the identical reuse-distance and cache machinery
// over the 3D access stream.

// TetMesh is a 3D tetrahedral mesh (vertex coordinates, tets, adjacency).
type TetMesh = mesh.TetMesh

// TetMeshStats summarizes a tetrahedral mesh (vertex/tet/boundary counts).
type TetMeshStats = mesh.TetStats

// Point3 is a 3D coordinate.
type Point3 = geom.Point3

// BuildTet assembles a tetrahedral mesh from vertices and tets, building
// the adjacency and boundary classification.
func BuildTet(coords []Point3, tets [][4]int32) (*TetMesh, error) {
	return mesh.NewTet(coords, tets)
}

// GenerateTetCube builds the structured unit-cube test mesh: nx x ny x nz
// grid cells, each split into six tetrahedra, with interior vertices
// displaced by a deterministic jitter of up to jitter*h per axis (0 keeps
// the regular grid).
func GenerateTetCube(nx, ny, nz int, jitter float64) (*TetMesh, error) {
	return mesh.GenerateTetCube(nx, ny, nz, jitter)
}

// GenerateTetCubeVerts builds the jittered cube mesh sized to roughly
// targetVerts vertices, mirroring GenerateMesh's size contract.
func GenerateTetCubeVerts(targetVerts int, jitter float64) (*TetMesh, error) {
	return mesh.GenerateTetCubeVerts(targetVerts, jitter)
}

// LoadTetMesh reads a TetGen-format mesh from base.node and base.ele
// (dimension 3). TetMesh.SaveFiles is the inverse.
func LoadTetMesh(base string) (*TetMesh, error) {
	return mesh.LoadTetFiles(base)
}

// TetMetric scores a tetrahedron's shape in [0, 1]; 1 is ideal (regular).
type TetMetric = quality.TetMetric

// MeanRatio is the normalized mean-ratio tet metric (the 3D default).
type MeanRatio = quality.MeanRatio3

// TetEdgeRatio is the edge-length-ratio metric lifted to tetrahedra.
type TetEdgeRatio = quality.EdgeRatio3

// TetGlobalQuality returns the mesh-wide quality: the average vertex
// quality. A nil metric means MeanRatio.
func TetGlobalQuality(m *TetMesh, met TetMetric) float64 {
	return quality.TetGlobal(m, orDefaultTetMetric(met))
}

// TetVertexQualities returns every vertex's quality: the average metric
// value of its attached tets. A nil metric means MeanRatio.
func TetVertexQualities(m *TetMesh, met TetMetric) []float64 {
	return quality.TetVertexQualities(m, orDefaultTetMetric(met))
}

// TetQualities returns the metric value of every tetrahedron. A nil metric
// means MeanRatio.
func TetQualities(m *TetMesh, met TetMetric) []float64 {
	return quality.TetQualities(m, orDefaultTetMetric(met))
}

func orDefaultTetMetric(met TetMetric) TetMetric {
	if met == nil {
		return MeanRatio{}
	}
	return met
}

// TetKernel is the per-vertex update rule of a 3D smoothing sweep; see the
// *TetKernel constructors.
type TetKernel = smooth.TetKernel

// PlainTetKernel is Eq. (1) in 3D: move each vertex to the unweighted
// average of its neighbors (the default).
func PlainTetKernel() TetKernel { return smooth.PlainKernel3{} }

// SmartTetKernel keeps a move only when it does not decrease the vertex's
// local quality (serial). A nil metric means MeanRatio.
func SmartTetKernel(met TetMetric) TetKernel { return smooth.SmartKernel3{Metric: met} }

// WeightedTetKernel averages neighbors with inverse-edge-length weights.
func WeightedTetKernel() TetKernel { return smooth.WeightedKernel3{} }

// ConstrainedTetKernel is the plain update with each per-sweep displacement
// clamped to maxDisplacement (> 0).
func ConstrainedTetKernel(maxDisplacement float64) TetKernel {
	return smooth.ConstrainedKernel3{MaxDisplacement: maxDisplacement}
}

// ReorderedTet is a tetrahedral mesh relabeled by an ordering, with the
// permutation and ordering time; the 3D sibling of Reordered.
type ReorderedTet struct {
	// Mesh is the renumbered mesh (the input mesh is unchanged).
	Mesh *TetMesh
	// Ordering is the name of the ordering applied.
	Ordering string
	// NewToOld maps new vertex index -> input vertex index.
	NewToOld []int32
	// OrderTime is how long computing the permutation took.
	OrderTime time.Duration
}

// ReorderTet relabels m's vertices with the named registered ordering —
// the same registry the 2D path uses — and returns the renumbered mesh
// (the input is unchanged).
func ReorderTet(m *TetMesh, orderingName string) (*ReorderedTet, error) {
	ord, err := order.ByName(orderingName)
	if err != nil {
		return nil, err
	}
	return ReorderTetWith(m, ord)
}

// ReorderTetWith is ReorderTet with an explicit Ordering implementation,
// driven by the initial mean-ratio vertex qualities.
func ReorderTetWith(m *TetMesh, ord Ordering) (*ReorderedTet, error) {
	perm, elapsed, err := computeOrdering(m, ord, quality.TetVertexQualities(m, quality.MeanRatio3{}))
	if err != nil {
		return nil, err
	}
	rm, err := m.Renumber(perm)
	if err != nil {
		return nil, fmt.Errorf("lams: applying %s ordering: %w", ord.Name(), err)
	}
	return &ReorderedTet{Mesh: rm, Ordering: ord.Name(), NewToOld: perm, OrderTime: elapsed}, nil
}

// SmoothTet runs Laplacian smoothing on the tetrahedral mesh in place and
// returns the run statistics, accepting the same options as Smooth (with
// WithTetMetric/WithTetKernel in place of the 2D metric and kernel
// options). The context cancels between iterations and worker chunks.
func SmoothTet(ctx context.Context, m *TetMesh, opts ...SmoothOption) (SmoothResult, error) {
	o, err := buildOptions3(opts)
	if err != nil {
		return SmoothResult{}, err
	}
	return smooth.RunTetContext(ctx, m, o)
}

// SmoothTetTraced smooths m in place for exactly iters iterations while
// recording the per-worker access trace, and returns both.
func SmoothTetTraced(ctx context.Context, m *TetMesh, workers, iters int) (SmoothResult, *TraceBuffer, error) {
	tb := NewTraceBuffer(workers)
	res, err := SmoothTet(ctx, m,
		WithWorkers(workers),
		WithMaxIterations(iters),
		WithTolerance(-1),
		WithTrace(tb))
	return res, tb, err
}

// AnalyzeTetLocality traces Laplacian smoothing on a copy of m (the input
// mesh is unchanged) and reports the reuse-distance and cache behavior of
// its access stream — the identical analysis AnalyzeLocality runs for 2D
// meshes, over the 3D smoother's trace.
func AnalyzeTetLocality(ctx context.Context, m *TetMesh, opts ...AnalyzeOption) (*LocalityReport, error) {
	cfg := analyzeConfig{iters: 1, workers: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	ccfg := ScaledCache(m.NumVerts())
	if cfg.cache != nil {
		ccfg = *cfg.cache
	}

	res, tb, err := SmoothTetTraced(ctx, m.Clone(), cfg.workers, cfg.iters)
	if err != nil {
		return nil, fmt.Errorf("lams: tracing 3D smoother: %w", err)
	}

	dists := reuse.StackDistances(reuse.Blocks(tb.Core(0), ccfg.VertsPerLine()))
	sum := reuse.Summarize(dists)
	qs, err := reuse.Quantiles(dists, []float64{0.5, 0.75, 0.9, 1})
	if err != nil {
		return nil, fmt.Errorf("lams: reuse quantiles: %w", err)
	}

	sim, err := cache.NewSim(ccfg, cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("lams: cache simulator: %w", err)
	}
	if err := sim.RunTrace(tb); err != nil {
		return nil, fmt.Errorf("lams: simulating trace: %w", err)
	}
	stats := sim.Stats()
	rates := make([]float64, len(stats))
	for i, st := range stats {
		rates[i] = st.MissRate()
	}

	return &LocalityReport{
		Iterations:        res.Iterations,
		Accesses:          res.Accesses,
		Cache:             ccfg,
		MeanReuseDistance: sum.Mean,
		ReuseQ50:          qs[0],
		ReuseQ75:          qs[1],
		ReuseQ90:          qs[2],
		MaxReuseDistance:  qs[3],
		MissRates:         rates,
		PenaltyCycles:     sim.CorePenaltyCycles(0),
	}, nil
}
