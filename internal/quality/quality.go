// Package quality implements the mesh quality metrics of the paper: the
// edge-length ratio of Knupp [7] (the metric the paper smooths with and the
// key that drives the RDR ordering), plus minimum-angle and aspect-ratio
// metrics used by the ablation studies.
//
// All metrics map a triangle to [0, 1], where 1 is the equilateral ideal.
// Vertex quality is the average metric over the triangles attached to the
// vertex; global quality is the average of all vertex qualities — exactly as
// §3.2 defines them.
package quality

import (
	"context"
	"math"

	"lams/internal/geom"
	"lams/internal/mesh"
	"lams/internal/parallel"
)

// Metric maps a triangle to a quality value in [0, 1].
type Metric interface {
	// Triangle returns the quality of triangle (a, b, c).
	Triangle(a, b, c geom.Point) float64
	// Name identifies the metric in reports.
	Name() string
}

// EdgeRatio is the edge-length ratio metric: the ratio of the shortest to
// the longest edge of the triangle. It is 1 for an equilateral triangle and
// approaches 0 as the triangle degenerates.
type EdgeRatio struct{}

// Name implements Metric.
func (EdgeRatio) Name() string { return "edge-length-ratio" }

// Triangle implements Metric.
func (EdgeRatio) Triangle(a, b, c geom.Point) float64 {
	e0 := a.Dist(b)
	e1 := b.Dist(c)
	e2 := c.Dist(a)
	lo := math.Min(e0, math.Min(e1, e2))
	hi := math.Max(e0, math.Max(e1, e2))
	if hi == 0 {
		return 0
	}
	return lo / hi
}

// MinAngle is the normalized minimum-angle metric: the smallest interior
// angle divided by 60 degrees.
type MinAngle struct{}

// Name implements Metric.
func (MinAngle) Name() string { return "min-angle" }

// Triangle implements Metric.
func (MinAngle) Triangle(a, b, c geom.Point) float64 {
	ang := func(p, q, r geom.Point) float64 {
		u, v := q.Sub(p), r.Sub(p)
		nu, nv := u.Norm(), v.Norm()
		if nu == 0 || nv == 0 {
			return 0
		}
		cos := u.Dot(v) / (nu * nv)
		cos = math.Max(-1, math.Min(1, cos))
		return math.Acos(cos)
	}
	m := math.Min(ang(a, b, c), math.Min(ang(b, c, a), ang(c, a, b)))
	return m / (math.Pi / 3)
}

// AspectRatio is the normalized area-to-edge metric
// 4*sqrt(3)*area / (sum of squared edge lengths), which is 1 for an
// equilateral triangle and 0 for a degenerate one.
type AspectRatio struct{}

// Name implements Metric.
func (AspectRatio) Name() string { return "aspect-ratio" }

// Triangle implements Metric.
func (AspectRatio) Triangle(a, b, c geom.Point) float64 {
	area := geom.TriangleArea(a, b, c)
	s := a.Dist2(b) + b.Dist2(c) + c.Dist2(a)
	if s == 0 {
		return 0
	}
	return 4 * math.Sqrt(3) * area / s
}

// TriangleQualities returns the metric value of every triangle.
func TriangleQualities(m *mesh.Mesh, met Metric) []float64 {
	out := make([]float64, m.NumTris())
	for i, tv := range m.Tris {
		out[i] = met.Triangle(m.Coords[tv[0]], m.Coords[tv[1]], m.Coords[tv[2]])
	}
	return out
}

// VertexQualities returns the quality of every vertex: the average metric
// value of the triangles attached to it (§3.2).
func VertexQualities(m *mesh.Mesh, met Metric) []float64 {
	triQ := TriangleQualities(m, met)
	out := make([]float64, m.NumVerts())
	for v := int32(0); v < int32(m.NumVerts()); v++ {
		ts := m.VertTris(v)
		if len(ts) == 0 {
			continue
		}
		var s float64
		for _, t := range ts {
			s += triQ[t]
		}
		out[v] = s / float64(len(ts))
	}
	return out
}

// VertexQuality recomputes the quality of a single vertex from the current
// coordinates (used by incremental updates during smoothing, notably the
// smart kernel's accept test). The default metric is called through its
// concrete type, everything else through the interface; see triRange.
func VertexQuality(m *mesh.Mesh, met Metric, v int32) float64 {
	ts := m.VertTris(v)
	if len(ts) == 0 {
		return 0
	}
	var s float64
	if _, ok := met.(EdgeRatio); ok {
		for _, t := range ts {
			tv := m.Tris[t]
			s += EdgeRatio{}.Triangle(m.Coords[tv[0]], m.Coords[tv[1]], m.Coords[tv[2]])
		}
	} else {
		for _, t := range ts {
			tv := m.Tris[t]
			s += met.Triangle(m.Coords[tv[0]], m.Coords[tv[1]], m.Coords[tv[2]])
		}
	}
	return s / float64(len(ts))
}

// Global returns the mesh-wide quality: the average vertex quality (§3.2).
// The vertex qualities are summed with the blocked order parallel.SumBlocked
// defines, so the value is bit-identical to Scratch.Global and to the
// parallel reduction at every worker count and schedule.
func Global(m *mesh.Mesh, met Metric) float64 {
	vq := VertexQualities(m, met)
	if len(vq) == 0 {
		return 0
	}
	return parallel.SumBlocked(vq) / float64(len(vq))
}

// Scratch holds reusable buffers for repeated quality evaluations, so a
// convergence loop that re-measures global quality every iteration does not
// reallocate two O(n) slices per sweep. It also owns the ordered-reduction
// scratch and the prebuilt worker bodies of the parallel passes, keeping
// repeated parallel measurements allocation-free in steady state. The zero
// value is ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	tri, vert []float64
	red       parallel.OrderedReducer

	// Descriptor of the staged element pass (set on entry, cleared on exit
	// so a parked Scratch does not pin the last-measured mesh): which range
	// body runs, its dimension-specific parameters, and the CSR incidence
	// the shared vertex-average pass reads. See pass.go.
	pkind passKind
	pm    *mesh.Mesh
	pmet  Metric
	ptm   *mesh.TetMesh
	ptmt  TetMetric

	// CSR vertex-to-element incidence of the staged pass (TriStart/TriList
	// or TetStart/TetList).
	pstart, plist []int32

	// Prebuilt pass bodies (one-time closures over the receiver), so
	// steady-state parallel passes hand the scheduler existing func values.
	elemBody func(worker int, c parallel.Chunk)
	avgBody  func(worker, block int, span parallel.Chunk) float64
}

// triRange fills s.tri for triangles [lo, hi). The type switch runs once
// per range: the default metric is called through its concrete type, which
// the compiler calls directly instead of through the interface's method
// table; every other metric takes the interface case.
func (s *Scratch) triRange(m *mesh.Mesh, met Metric, lo, hi int) {
	coords, tri := m.Coords, s.tri
	if _, ok := met.(EdgeRatio); ok {
		for i, tv := range m.Tris[lo:hi] {
			tri[lo+i] = EdgeRatio{}.Triangle(coords[tv[0]], coords[tv[1]], coords[tv[2]])
		}
		return
	}
	for i, tv := range m.Tris[lo:hi] {
		tri[lo+i] = met.Triangle(coords[tv[0]], coords[tv[1]], coords[tv[2]])
	}
}

// globalSum stages the per-triangle metric pass and runs the generic
// two-stage pipeline (see pass.go): bit-identical to the serial pass at
// every worker count and schedule.
func (s *Scratch) globalSum(ctx context.Context, m *mesh.Mesh, met Metric, workers int, sched parallel.Scheduler) (float64, error) {
	s.pkind, s.pm, s.pmet = passTri, m, met
	s.pstart, s.plist = m.TriStart, m.TriList
	return s.passSum(ctx, m.NumTris(), m.NumVerts(), workers, sched)
}

// TriangleQualities is like the package-level TriangleQualities but writes
// into the scratch buffer. The result is valid until the next call on s.
func (s *Scratch) TriangleQualities(m *mesh.Mesh, met Metric) []float64 {
	s.tri = grow(s.tri, m.NumTris())
	s.triRange(m, met, 0, m.NumTris())
	return s.tri
}

// VertexQualities is like the package-level VertexQualities but writes into
// the scratch buffers. The result is valid until the next call on s.
func (s *Scratch) VertexQualities(m *mesh.Mesh, met Metric) []float64 {
	vq, _ := s.VertexQualitiesParallel(context.Background(), m, met, 1, nil)
	return vq
}

// VertexQualitiesParallel is VertexQualities with both passes distributed
// across workers by sched (nil or workers <= 1 runs serially, inline).
// Per-vertex values are computed independently, so the result is
// bit-identical to the serial pass at every worker count and schedule. The
// slice is valid until the next call on s. On cancellation it returns
// ctx.Err() and the buffer contents are unspecified.
func (s *Scratch) VertexQualitiesParallel(ctx context.Context, m *mesh.Mesh, met Metric, workers int, sched parallel.Scheduler) ([]float64, error) {
	if _, err := s.globalSum(ctx, m, met, workers, sched); err != nil {
		return nil, err
	}
	return s.vert, nil
}

// Global is like the package-level Global but allocation-free after the
// scratch buffers have grown to the mesh's size.
func (s *Scratch) Global(m *mesh.Mesh, met Metric) float64 {
	g, _ := s.GlobalParallel(context.Background(), m, met, 1, nil)
	return g
}

// GlobalParallel is Global with the metric pass, the vertex-average pass,
// and the final reduction distributed across workers by sched (nil or
// workers <= 1 runs serially, inline, and never fails). Partial sums follow
// the fixed ReduceBlock tiling and are combined in block order, so the
// value is bit-identical to the serial Global at every worker count and
// schedule — the property that lets the sweep engines parallelize
// measurement without perturbing convergence.
func (s *Scratch) GlobalParallel(ctx context.Context, m *mesh.Mesh, met Metric, workers int, sched parallel.Scheduler) (float64, error) {
	sum, err := s.globalSum(ctx, m, met, workers, sched)
	if err != nil {
		return 0, err
	}
	nv := m.NumVerts()
	if nv == 0 {
		return 0, nil
	}
	return sum / float64(nv), nil
}

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
