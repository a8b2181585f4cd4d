package quality

import (
	"context"

	"lams/internal/parallel"
)

// One dimension-generic element-range pass: every global / per-vertex
// quality evaluation — triangles or tetrahedra — is the same two-stage
// pipeline: a per-element metric fill into s.tri, then a CSR vertex-average
// pass into s.vert folded by the ordered blocked reduction. The
// dimension-specific pieces are only the element-range bodies (triRange in
// quality.go, tetRange in tet.go); the orchestration lives here once, so
// the 2D and 3D entry points cannot drift apart.

// passKind selects the staged pass's element-range body.
type passKind uint8

const (
	passNone passKind = iota
	passTri
	passTet
)

// endPass clears the staged descriptor so a parked Scratch does not pin the
// last-measured mesh.
func (s *Scratch) endPass() {
	s.pkind = passNone
	s.pm, s.pmet = nil, nil
	s.ptm, s.ptmt = nil, nil
	s.pstart, s.plist = nil, nil
}

// elemRange dispatches elements [lo, hi) to the staged pass's range body.
// The dispatch happens once per chunk, not per element.
func (s *Scratch) elemRange(lo, hi int) {
	switch s.pkind {
	case passTri:
		s.triRange(s.pm, s.pmet, lo, hi)
	case passTet:
		s.tetRange(s.ptm, s.ptmt, lo, hi)
	}
}

// vertAvgRange fills s.vert for vertices [lo, hi) from the element
// qualities in s.tri and returns their left-to-right quality sum — one
// block of the ordered global reduction. It reads only the staged CSR
// incidence, so the same loop serves both dimensions. The CSR loads are
// hoisted out of the loop.
func (s *Scratch) vertAvgRange(lo, hi int) float64 {
	elemQ, vert := s.tri, s.vert
	start, list := s.pstart, s.plist
	var sum float64
	for v := lo; v < hi; v++ {
		a, b := start[v], start[v+1]
		if a == b {
			vert[v] = 0
			continue
		}
		var q float64
		for _, t := range list[a:b] {
			q += elemQ[t]
		}
		q /= float64(b - a)
		vert[v] = q
		sum += q
	}
	return sum
}

// passSum runs the staged pass's two stages over ne elements and nv
// vertices and returns the blocked sum of the vertex qualities, clearing
// the descriptor on exit. With a scheduler and workers > 1 both stages and
// the reduction run in parallel; the result is bit-identical to the serial
// pass because every per-element value is independent and the reduction
// granularity is fixed (see parallel.OrderedReducer). The bodies handed to
// the scheduler are prebuilt one-time closures over the receiver, so
// steady-state parallel passes allocate nothing.
func (s *Scratch) passSum(ctx context.Context, ne, nv, workers int, sched parallel.Scheduler) (float64, error) {
	defer s.endPass()
	s.tri = grow(s.tri, ne)
	s.vert = grow(s.vert, nv)
	if sched == nil || workers <= 1 {
		s.elemRange(0, ne)
		var total float64
		for b := 0; b < parallel.ReduceBlocks(nv); b++ {
			span := parallel.BlockSpan(nv, b)
			total += s.vertAvgRange(span.Lo, span.Hi)
		}
		return total, nil
	}
	if s.elemBody == nil {
		s.elemBody = func(_ int, c parallel.Chunk) { s.elemRange(c.Lo, c.Hi) }
	}
	if s.avgBody == nil {
		s.avgBody = func(_, _ int, span parallel.Chunk) float64 { return s.vertAvgRange(span.Lo, span.Hi) }
	}
	err := sched.Run(ctx, ne, workers, s.elemBody)
	var total float64
	if err == nil {
		total, err = s.red.Reduce(ctx, sched, nv, workers, s.avgBody)
	}
	return total, err
}
