// Package lams is the public API of the Locality-Aware Laplacian Mesh
// Smoothing library (Aupy, Park, Raghavan; ICPP 2016, arXiv:1606.00803).
//
// It exposes the paper's pipeline as four composable stages:
//
//	build   — GenerateMesh / LoadMesh construct a triangular mesh;
//	order   — Reorder relabels the vertices with a locality ordering
//	          (RDR, BFS, Hilbert, …) from the extensible ordering registry;
//	smooth  — Smooth (or a reusable Smoother) runs Laplacian smoothing with
//	          functional options and context cancellation;
//	analyze — AnalyzeLocality traces the smoother and reports reuse
//	          distances, simulated cache miss rates, and penalty cycles.
//
// Run chains all four stages in one call. The heavy data structures (Mesh,
// orderings, quality metrics, trace buffers) are aliases of the internal
// implementation packages, so values returned here interoperate with every
// stage without conversion.
//
// Smoothing scales along two independent axes: WithWorkers parallelizes
// the sweeps and quality measurements inside one engine, and
// WithPartitions decomposes the mesh into halo-carrying partitions served
// by one engine each, synchronized per sweep. Both axes (and WithSchedule,
// in any combination) are pure performance decisions — results are
// bit-identical to the serial single-engine run.
package lams

import (
	"fmt"
	"time"

	"lams/internal/domains"
	"lams/internal/geom"
	"lams/internal/mesh"
	"lams/internal/order"
	"lams/internal/quality"
	"lams/internal/trace"
)

// Mesh is a 2-D triangular mesh (vertex coordinates, triangles, adjacency).
type Mesh = mesh.Mesh

// MeshStats summarizes a mesh (vertex/triangle/boundary counts).
type MeshStats = mesh.Stats

// Point is a 2-D coordinate.
type Point = geom.Point

// GenerateMesh builds the named test domain (one of the paper's Table 1
// meshes; see Domains) with roughly targetVerts vertices.
func GenerateMesh(name string, targetVerts int) (*Mesh, error) {
	return mesh.Generate(name, targetVerts)
}

// LoadMesh reads a Triangle-format mesh from base.node and base.ele.
// Mesh.SaveFiles is the inverse.
func LoadMesh(base string) (*Mesh, error) {
	return mesh.LoadFiles(base)
}

// Domains lists the generatable test-mesh names (the paper's nine Table 1
// domains).
func Domains() []string { return domains.Names() }

// Metric scores a triangle's shape in [0, 1]; 1 is ideal (equilateral).
type Metric = quality.Metric

// EdgeRatio is the paper's edge-length-ratio metric (the default).
type EdgeRatio = quality.EdgeRatio

// MinAngle is the normalized minimum-angle metric.
type MinAngle = quality.MinAngle

// AspectRatio is the normalized aspect-ratio metric.
type AspectRatio = quality.AspectRatio

// GlobalQuality returns the mesh-wide quality: the average vertex quality.
// A nil metric means EdgeRatio.
func GlobalQuality(m *Mesh, met Metric) float64 {
	return quality.Global(m, orDefaultMetric(met))
}

// VertexQualities returns every vertex's quality: the average metric value
// of its attached triangles. A nil metric means EdgeRatio.
func VertexQualities(m *Mesh, met Metric) []float64 {
	return quality.VertexQualities(m, orDefaultMetric(met))
}

// TriangleQualities returns the metric value of every triangle. A nil
// metric means EdgeRatio.
func TriangleQualities(m *Mesh, met Metric) []float64 {
	return quality.TriangleQualities(m, orDefaultMetric(met))
}

func orDefaultMetric(met Metric) Metric {
	if met == nil {
		return EdgeRatio{}
	}
	return met
}

// TraceBuffer records the smoother's per-worker vertex-access streams for
// locality analysis.
type TraceBuffer = trace.Buffer

// NewTraceBuffer returns a trace buffer with one stream per worker.
func NewTraceBuffer(workers int) *TraceBuffer { return trace.NewBuffer(workers) }

// Ordering computes a vertex permutation for a mesh. Position k of the
// result holds the index (in the input mesh) of the vertex to store k-th.
type Ordering = order.Ordering

// Graph is the adjacency view an Ordering traverses: CSR vertex
// neighborhoods plus the boundary/interior partition. Both *Mesh and
// *TetMesh implement it, which is why one registry of orderings serves both
// dimensions; custom orderings registered through RegisterOrdering receive
// their input as a Graph.
type Graph = order.Graph

// SpatialGraph is the optional coordinate view of a Graph: space-filling-
// curve keys over the vertex positions. Both mesh types implement it; the
// curve orderings (HILBERT, MORTON) require it.
type SpatialGraph = order.Spatial

// Reordered is a mesh relabeled by an ordering, with the permutation and
// the time the ordering took (the pre-computation cost the paper's §5.4
// weighs against the smoothing gain).
type Reordered struct {
	// Mesh is the renumbered mesh (the input mesh is unchanged).
	Mesh *Mesh
	// Ordering is the name of the ordering applied.
	Ordering string
	// NewToOld maps new vertex index -> input vertex index.
	NewToOld []int32
	// OrderTime is how long computing the permutation took.
	OrderTime time.Duration
}

// Orderings lists the registered ordering names in report order: ORI,
// RANDOM, BFS, DFS, RDR, RCM, HILBERT, MORTON, CPACK, then the
// parameterized variants BFS-WORST (BFS rooted at the worst-quality
// vertex) and RDR-DESC (RDR with reversed quality comparisons), plus any
// orderings added through RegisterOrdering.
func Orderings() []string { return order.Names() }

// OrderingByName returns the named registered ordering with default
// parameters.
func OrderingByName(name string) (Ordering, error) { return order.ByName(name) }

// RegisterOrdering adds a custom ordering to the registry, making it
// available to OrderingByName, Reorder, and Run by name. It panics on a
// duplicate or empty name.
func RegisterOrdering(name string, factory func() Ordering) { order.Register(name, factory) }

// Reorder relabels m's vertices with the named registered ordering and
// returns the renumbered mesh (the input is unchanged).
func Reorder(m *Mesh, orderingName string) (*Reordered, error) {
	ord, err := order.ByName(orderingName)
	if err != nil {
		return nil, err
	}
	return ReorderWith(m, ord)
}

// ReorderWith is Reorder with an explicit Ordering implementation. The
// ordering is driven by the initial edge-length-ratio vertex qualities,
// which RDR and the quality-rooted BFS variants require.
func ReorderWith(m *Mesh, ord Ordering) (*Reordered, error) {
	perm, elapsed, err := computeOrdering(m, ord, quality.VertexQualities(m, quality.EdgeRatio{}))
	if err != nil {
		return nil, err
	}
	rm, err := m.Renumber(perm)
	if err != nil {
		return nil, fmt.Errorf("lams: applying %s ordering: %w", ord.Name(), err)
	}
	return &Reordered{Mesh: rm, Ordering: ord.Name(), NewToOld: perm, OrderTime: elapsed}, nil
}

// computeOrdering runs ord over g with the vertex qualities vq and times it.
func computeOrdering(g Graph, ord Ordering, vq []float64) ([]int32, time.Duration, error) {
	start := time.Now()
	perm, err := ord.Compute(g, vq)
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("lams: computing %s ordering: %w", ord.Name(), err)
	}
	return perm, elapsed, nil
}
