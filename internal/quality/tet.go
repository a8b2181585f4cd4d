package quality

import (
	"context"
	"math"

	"lams/internal/geom"
	"lams/internal/mesh"
	"lams/internal/parallel"
)

// Tetrahedral quality metrics — the 3D counterparts of the triangle metrics,
// with the same normalization contract: every metric maps a tet to [0, 1],
// 1 for the regular (equilateral) tetrahedron, 0 for a degenerate or
// inverted one. Vertex quality is the average over attached tets and global
// quality the average vertex quality, exactly as §3.2 aggregates triangles.

// TetMetric maps a tetrahedron to a quality value in [0, 1].
type TetMetric interface {
	// Tet returns the quality of tetrahedron (a, b, c, d).
	Tet(a, b, c, d geom.Point3) float64
	// Name identifies the metric in reports.
	Name() string
}

// MeanRatio3 is the normalized mean-ratio metric for tetrahedra,
// 12*(3V)^(2/3) / Σ l_i² over the six edges: 1 for the regular tetrahedron,
// approaching 0 as the tet degenerates, and 0 for flat or inverted tets
// (negative orientation). It is the standard algebraic shape measure of
// Liu and Joe and the default 3D smoothing metric here.
type MeanRatio3 struct{}

// Name implements TetMetric.
func (MeanRatio3) Name() string { return "mean-ratio" }

// Tet implements TetMetric.
func (MeanRatio3) Tet(a, b, c, d geom.Point3) float64 {
	vol6 := geom.Orient3DValue(a, b, c, d)
	if vol6 <= 0 {
		return 0
	}
	s := a.Dist2(b) + a.Dist2(c) + a.Dist2(d) + b.Dist2(c) + b.Dist2(d) + c.Dist2(d)
	if s == 0 {
		return 0
	}
	// vol6 is 6V, so 3V = vol6/2.
	return 12 * math.Cbrt((vol6/2)*(vol6/2)) / s
}

// EdgeRatio3 is the edge-length-ratio metric lifted to tetrahedra: the ratio
// of the shortest to the longest of the six edges, 1 for the regular tet.
// Like its 2D namesake it is orientation-blind and cheap — the natural
// driver for the RDR ordering's initial qualities when smoothing 3D meshes
// with the paper's metric family.
type EdgeRatio3 struct{}

// Name implements TetMetric.
func (EdgeRatio3) Name() string { return "edge-length-ratio" }

// Tet implements TetMetric.
func (EdgeRatio3) Tet(a, b, c, d geom.Point3) float64 {
	e := [6]float64{a.Dist(b), a.Dist(c), a.Dist(d), b.Dist(c), b.Dist(d), c.Dist(d)}
	lo, hi := e[0], e[0]
	for _, l := range e[1:] {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi == 0 {
		return 0
	}
	return lo / hi
}

// TetQualities returns the metric value of every tetrahedron.
func TetQualities(m *mesh.TetMesh, met TetMetric) []float64 {
	out := make([]float64, m.NumTets())
	for i, tv := range m.Tets {
		out[i] = met.Tet(m.Coords[tv[0]], m.Coords[tv[1]], m.Coords[tv[2]], m.Coords[tv[3]])
	}
	return out
}

// TetVertexQualities returns the quality of every vertex: the average metric
// value of the tets attached to it (§3.2, lifted to 3D).
func TetVertexQualities(m *mesh.TetMesh, met TetMetric) []float64 {
	tetQ := TetQualities(m, met)
	out := make([]float64, m.NumVerts())
	for v := int32(0); v < int32(m.NumVerts()); v++ {
		ts := m.VertTets(v)
		if len(ts) == 0 {
			continue
		}
		var s float64
		for _, t := range ts {
			s += tetQ[t]
		}
		out[v] = s / float64(len(ts))
	}
	return out
}

// TetVertexQuality recomputes the quality of a single vertex from the
// current coordinates (used by incremental updates during smoothing,
// notably the smart kernel's accept test). The default metric is called
// through its concrete type, everything else through the interface; see
// tetRange.
func TetVertexQuality(m *mesh.TetMesh, met TetMetric, v int32) float64 {
	ts := m.VertTets(v)
	if len(ts) == 0 {
		return 0
	}
	var s float64
	if _, ok := met.(MeanRatio3); ok {
		for _, t := range ts {
			tv := m.Tets[t]
			s += MeanRatio3{}.Tet(m.Coords[tv[0]], m.Coords[tv[1]], m.Coords[tv[2]], m.Coords[tv[3]])
		}
	} else {
		for _, t := range ts {
			tv := m.Tets[t]
			s += met.Tet(m.Coords[tv[0]], m.Coords[tv[1]], m.Coords[tv[2]], m.Coords[tv[3]])
		}
	}
	return s / float64(len(ts))
}

// TetGlobal returns the mesh-wide quality: the average vertex quality. Like
// the 2D Global, the vertex qualities are summed with the blocked order
// parallel.SumBlocked defines, so the value is bit-identical to
// Scratch.TetGlobal and to the parallel reduction at every worker count and
// schedule.
func TetGlobal(m *mesh.TetMesh, met TetMetric) float64 {
	vq := TetVertexQualities(m, met)
	if len(vq) == 0 {
		return 0
	}
	return parallel.SumBlocked(vq) / float64(len(vq))
}

// tetRange fills s.tri for tetrahedra [lo, hi): the 3D twin of triRange,
// calling the default metric (MeanRatio3) through its concrete type.
func (s *Scratch) tetRange(m *mesh.TetMesh, met TetMetric, lo, hi int) {
	coords, tri := m.Coords, s.tri
	if _, ok := met.(MeanRatio3); ok {
		for i, tv := range m.Tets[lo:hi] {
			tri[lo+i] = MeanRatio3{}.Tet(coords[tv[0]], coords[tv[1]], coords[tv[2]], coords[tv[3]])
		}
		return
	}
	for i, tv := range m.Tets[lo:hi] {
		tri[lo+i] = met.Tet(coords[tv[0]], coords[tv[1]], coords[tv[2]], coords[tv[3]])
	}
}

// globalSum3 is the 3D twin of globalSum: it stages the per-tet metric pass
// and runs the same generic two-stage pipeline (see pass.go).
func (s *Scratch) globalSum3(ctx context.Context, m *mesh.TetMesh, met TetMetric, workers int, sched parallel.Scheduler) (float64, error) {
	s.pkind, s.ptm, s.ptmt = passTet, m, met
	s.pstart, s.plist = m.TetStart, m.TetList
	return s.passSum(ctx, m.NumTets(), m.NumVerts(), workers, sched)
}

// TetQualities is like the package-level TetQualities but writes into the
// scratch buffer. The result is valid until the next call on s.
func (s *Scratch) TetQualities(m *mesh.TetMesh, met TetMetric) []float64 {
	s.tri = grow(s.tri, m.NumTets())
	s.tetRange(m, met, 0, m.NumTets())
	return s.tri
}

// TetVertexQualities is like the package-level TetVertexQualities but writes
// into the scratch buffers. The result is valid until the next call on s.
func (s *Scratch) TetVertexQualities(m *mesh.TetMesh, met TetMetric) []float64 {
	vq, _ := s.TetVertexQualitiesParallel(context.Background(), m, met, 1, nil)
	return vq
}

// TetVertexQualitiesParallel is the 3D twin of VertexQualitiesParallel:
// bit-identical to the serial pass at every worker count and schedule.
func (s *Scratch) TetVertexQualitiesParallel(ctx context.Context, m *mesh.TetMesh, met TetMetric, workers int, sched parallel.Scheduler) ([]float64, error) {
	if _, err := s.globalSum3(ctx, m, met, workers, sched); err != nil {
		return nil, err
	}
	return s.vert, nil
}

// TetGlobal is like the package-level TetGlobal but allocation-free after
// the scratch buffers have grown to the mesh's size.
func (s *Scratch) TetGlobal(m *mesh.TetMesh, met TetMetric) float64 {
	g, _ := s.TetGlobalParallel(context.Background(), m, met, 1, nil)
	return g
}

// TetGlobalParallel is the 3D twin of GlobalParallel: the tet-metric pass,
// the vertex-average pass, and the blocked reduction distributed across
// workers, bit-identical to the serial TetGlobal at every worker count and
// schedule.
func (s *Scratch) TetGlobalParallel(ctx context.Context, m *mesh.TetMesh, met TetMetric, workers int, sched parallel.Scheduler) (float64, error) {
	sum, err := s.globalSum3(ctx, m, met, workers, sched)
	if err != nil {
		return 0, err
	}
	nv := m.NumVerts()
	if nv == 0 {
		return 0, nil
	}
	return sum / float64(nv), nil
}
