package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"lams/internal/mesh"
	"lams/internal/parallel"
	"lams/internal/partition"
	"lams/internal/perfmodel"
	"lams/internal/quality"
	"lams/pkg/lams"
)

// benchMesh is the one view of a triangle or tetrahedral mesh the
// benchmark drives: each method is a call into a public entry point of the
// library for the mesh's dimension.
type benchMesh interface {
	NumVerts() int
	clone() benchMesh
	// reorder is the library path: lams.Reorder or lams.ReorderTet.
	reorder(ordering string) (benchMesh, error)
	// seedQualities, compute and renumber are the three steps of reorder,
	// called one by one in the traced run.
	seedQualities() []float64
	renumber(perm []int32) (benchMesh, error)
	graph() lams.Graph
	// smooth runs on s, or one-shot when s is nil.
	smooth(ctx context.Context, s *lams.Smoother, opts ...lams.SmoothOption) (lams.SmoothResult, error)
	analyze(ctx context.Context) (*lams.LocalityReport, error)
	// predict is the Eq. (2) model's time for one sweep at the given
	// worker count, from a traced sweep on a copy.
	predict(ctx context.Context, workers int) (float64, error)
	// measure is one global quality pass at the given worker count.
	measure(ctx context.Context, qs *quality.Scratch, workers int) (float64, error)
	partitionInput() partition.Input
	buildLocals(l *partition.Layout) error
	coordHash() uint64
	// workingSet is the computed size in bytes of the mesh arrays plus the
	// engine's coordinate mirrors and quality buffers.
	workingSet() int64
}

// decode parses .node/.ele bytes (span mesh.decode) and assembles the mesh
// with its CSR adjacency (span mesh.csr).
func decode(in meshInput, tr *Tracer, parent int) (benchMesh, error) {
	id := tr.Begin("mesh.decode", parent)
	if in.Dim == 3 {
		coords, err := mesh.ReadNode3(bytes.NewReader(in.Node), 0)
		if err != nil {
			return nil, err
		}
		tets, err := mesh.ReadTetEle(bytes.NewReader(in.Ele), len(coords), 0)
		tr.End(id)
		if err != nil {
			return nil, err
		}
		id = tr.Begin("mesh.csr", parent)
		m, err := lams.BuildTet(coords, tets)
		tr.End(id)
		if err != nil {
			return nil, err
		}
		return tetMesh{m}, nil
	}
	coords, err := mesh.ReadNode(bytes.NewReader(in.Node), 0)
	if err != nil {
		return nil, err
	}
	tris, err := mesh.ReadEle(bytes.NewReader(in.Ele), len(coords), 0)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	id = tr.Begin("mesh.csr", parent)
	m, err := mesh.New(coords, tris)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	return triMesh{m}, nil
}

var staticSchedule = func() parallel.Scheduler {
	s, err := parallel.SchedulerByName(parallel.ScheduleStatic)
	if err != nil {
		panic(err) // the static schedule is always registered
	}
	return s
}()

type triMesh struct{ m *lams.Mesh }

func (t triMesh) NumVerts() int     { return t.m.NumVerts() }
func (t triMesh) clone() benchMesh  { return triMesh{t.m.Clone()} }
func (t triMesh) graph() lams.Graph { return t.m }

func (t triMesh) reorder(ordering string) (benchMesh, error) {
	re, err := lams.Reorder(t.m, ordering)
	if err != nil {
		return nil, err
	}
	return triMesh{re.Mesh}, nil
}

func (t triMesh) seedQualities() []float64 { return lams.VertexQualities(t.m, nil) }

func (t triMesh) renumber(perm []int32) (benchMesh, error) {
	m, err := t.m.Renumber(perm)
	if err != nil {
		return nil, err
	}
	return triMesh{m}, nil
}

func (t triMesh) smooth(ctx context.Context, s *lams.Smoother, opts ...lams.SmoothOption) (lams.SmoothResult, error) {
	if s == nil {
		return lams.Smooth(ctx, t.m, opts...)
	}
	return s.Smooth(ctx, t.m, opts...)
}

func (t triMesh) analyze(ctx context.Context) (*lams.LocalityReport, error) {
	return lams.AnalyzeLocality(ctx, t.m)
}

func (t triMesh) predict(ctx context.Context, workers int) (float64, error) {
	_, tb, err := lams.SmoothTraced(ctx, t.m.Clone(), workers, 1)
	if err != nil {
		return 0, err
	}
	est, err := perfmodel.ForMeshSize(t.m.NumVerts()).Run(tb)
	return est.Seconds, err
}

func (t triMesh) measure(ctx context.Context, qs *quality.Scratch, workers int) (float64, error) {
	return qs.GlobalParallel(ctx, t.m, lams.EdgeRatio{}, workers, staticSchedule)
}

func (t triMesh) partitionInput() partition.Input { return partition.FromMesh(t.m) }

func (t triMesh) buildLocals(l *partition.Layout) error {
	for i := range l.Parts {
		if _, _, err := partition.BuildLocal(t.m, &l.Parts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (t triMesh) coordHash() uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range t.m.Coords {
		putFloats(buf[:], p.X, p.Y)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (t triMesh) workingSet() int64 {
	m := t.m
	n, e := int64(m.NumVerts()), int64(m.NumTris())
	mesh := 16*n + 12*e + 4*(n+1) + 4*int64(len(m.AdjList)) + n +
		4*int64(len(m.InteriorVerts)) + 4*(n+1) + 4*int64(len(m.TriList))
	engine := 2*16*n + 8*e + 8*n // SoA x,y and next; element and vertex qualities
	return mesh + engine
}

type tetMesh struct{ m *lams.TetMesh }

func (t tetMesh) NumVerts() int     { return t.m.NumVerts() }
func (t tetMesh) clone() benchMesh  { return tetMesh{t.m.Clone()} }
func (t tetMesh) graph() lams.Graph { return t.m }

func (t tetMesh) reorder(ordering string) (benchMesh, error) {
	re, err := lams.ReorderTet(t.m, ordering)
	if err != nil {
		return nil, err
	}
	return tetMesh{re.Mesh}, nil
}

func (t tetMesh) seedQualities() []float64 { return lams.TetVertexQualities(t.m, nil) }

func (t tetMesh) renumber(perm []int32) (benchMesh, error) {
	m, err := t.m.Renumber(perm)
	if err != nil {
		return nil, err
	}
	return tetMesh{m}, nil
}

func (t tetMesh) smooth(ctx context.Context, s *lams.Smoother, opts ...lams.SmoothOption) (lams.SmoothResult, error) {
	if s == nil {
		return lams.SmoothTet(ctx, t.m, opts...)
	}
	return s.SmoothTet(ctx, t.m, opts...)
}

func (t tetMesh) analyze(ctx context.Context) (*lams.LocalityReport, error) {
	return lams.AnalyzeTetLocality(ctx, t.m)
}

func (t tetMesh) predict(ctx context.Context, workers int) (float64, error) {
	_, tb, err := lams.SmoothTetTraced(ctx, t.m.Clone(), workers, 1)
	if err != nil {
		return 0, err
	}
	est, err := perfmodel.ForMeshSize(t.m.NumVerts()).Run(tb)
	return est.Seconds, err
}

func (t tetMesh) measure(ctx context.Context, qs *quality.Scratch, workers int) (float64, error) {
	return qs.TetGlobalParallel(ctx, t.m, lams.MeanRatio{}, workers, staticSchedule)
}

func (t tetMesh) partitionInput() partition.Input { return partition.FromTetMesh(t.m) }

func (t tetMesh) buildLocals(l *partition.Layout) error {
	for i := range l.Parts {
		if _, _, err := partition.BuildLocalTet(t.m, &l.Parts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (t tetMesh) coordHash() uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, p := range t.m.Coords {
		putFloats(buf[:], p.X, p.Y, p.Z)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (t tetMesh) workingSet() int64 {
	m := t.m
	n, e := int64(m.NumVerts()), int64(m.NumTets())
	mesh := 24*n + 16*e + 4*(n+1) + 4*int64(len(m.AdjList)) + n +
		4*int64(len(m.InteriorVerts)) + 4*(n+1) + 4*int64(len(m.TetList))
	engine := 2*24*n + 8*e + 8*n // SoA x,y,z and next; element and vertex qualities
	return mesh + engine
}

// putFloats writes the IEEE-754 bits of xs, little-endian, into buf.
func putFloats(buf []byte, xs ...float64) {
	for i, x := range xs {
		b := math.Float64bits(x)
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(b >> (8 * j))
		}
	}
}

// fingerprint is what the output check compares bit for bit.
type fingerprint struct {
	Hash       uint64
	Iterations int
	Accesses   int64
	Final      uint64 // math.Float64bits(FinalQuality)
}

func fingerprintOf(m benchMesh, res lams.SmoothResult) fingerprint {
	return fingerprint{
		Hash:       m.coordHash(),
		Iterations: res.Iterations,
		Accesses:   res.Accesses,
		Final:      math.Float64bits(res.FinalQuality),
	}
}

// checkFingerprint reports how got differs from the reference.
func checkFingerprint(got, ref fingerprint) error {
	if got != ref {
		return fmt.Errorf("output differs from the serial reference: got %+v, want %+v", got, ref)
	}
	return nil
}
