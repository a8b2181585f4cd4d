package lams_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"lams/pkg/lams"
)

// TestReorderPlacement pins what a Reordered value means: NewToOld is a
// permutation of the input's vertices, new vertex k sits where input vertex
// NewToOld[k] sat, the renumbered mesh is valid, and the input is a
// different mesh left as it was.
func TestReorderPlacement(t *testing.T) {
	m, err := lams.GenerateMesh("valve", 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lams.GenerateMesh("nope", 1000); err == nil {
		t.Error("unknown mesh name accepted")
	}
	before := append([]lams.Point(nil), m.Coords...)
	re, err := lams.Reorder(m, "RDR")
	if err != nil {
		t.Fatal(err)
	}
	if re.Ordering != "RDR" {
		t.Errorf("ordering name %q", re.Ordering)
	}
	if re.Mesh == m {
		t.Fatal("Reorder returned the input mesh")
	}
	if err := re.Mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	if re.Mesh.NumVerts() != m.NumVerts() || re.Mesh.NumTris() != m.NumTris() {
		t.Fatalf("counts changed: %s vs %s", re.Mesh.Summary(), m.Summary())
	}
	seen := make([]bool, m.NumVerts())
	for k, old := range re.NewToOld {
		if old < 0 || int(old) >= len(seen) || seen[old] {
			t.Fatalf("NewToOld[%d] = %d: not a permutation", k, old)
		}
		seen[old] = true
		if re.Mesh.Coords[k] != m.Coords[old] {
			t.Fatalf("new vertex %d is not input vertex %d", k, old)
		}
	}
	for i := range before {
		if m.Coords[i] != before[i] {
			t.Fatalf("input vertex %d mutated", i)
		}
	}
}

// TestEndToEndPipeline exercises the full user workflow: generate, save to
// Triangle files, reload, reorder with RDR, smooth in parallel, and verify
// the result is a valid improved mesh that still writes and reads cleanly.
func TestEndToEndPipeline(t *testing.T) {
	m, err := lams.GenerateMesh("stress", 2500)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "stress")
	if err := m.SaveFiles(base); err != nil {
		t.Fatal(err)
	}
	loaded, err := lams.LoadMesh(base)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVerts() != m.NumVerts() {
		t.Fatal("file round trip changed vertex count")
	}

	re, err := lams.Reorder(loaded, "RDR")
	if err != nil {
		t.Fatal(err)
	}
	q0 := lams.GlobalQuality(re.Mesh, nil)
	res, err := lams.Smooth(context.Background(), re.Mesh, lams.WithWorkers(3), lams.WithMaxIterations(15))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalQuality <= q0 {
		t.Errorf("pipeline did not improve quality: %v -> %v", q0, res.FinalQuality)
	}
	if err := re.Mesh.Validate(); err != nil {
		t.Fatal(err)
	}

	base2 := filepath.Join(t.TempDir(), "smoothed")
	if err := re.Mesh.SaveFiles(base2); err != nil {
		t.Fatal(err)
	}
	if _, err := lams.LoadMesh(base2); err != nil {
		t.Fatal(err)
	}
}

// TestReorderingsPreserveSmoothingResult pins the central correctness
// property end to end: with Jacobi updates, all orderings produce the same
// smoothed geometry up to floating-point summation order (the neighbor sums
// of Eq. 1 accumulate in renumbered order). Aggregate statistics must agree
// to near machine precision.
func TestReorderingsPreserveSmoothingResult(t *testing.T) {
	m, err := lams.GenerateMesh("lake", 2000)
	if err != nil {
		t.Fatal(err)
	}
	type agg struct{ sumX, sumY, q float64 }
	smoothAgg := func(ordName string) agg {
		re, err := lams.Reorder(m, ordName)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lams.Smooth(context.Background(), re.Mesh, lams.WithMaxIterations(6), lams.WithTolerance(-1))
		if err != nil {
			t.Fatal(err)
		}
		var a agg
		for _, p := range re.Mesh.Coords {
			a.sumX += p.X
			a.sumY += p.Y
		}
		a.q = res.FinalQuality
		return a
	}
	ref := smoothAgg("ORI")
	for _, ordName := range []string{"BFS", "RDR", "HILBERT"} {
		got := smoothAgg(ordName)
		if math.Abs(got.sumX-ref.sumX) > 1e-7 || math.Abs(got.sumY-ref.sumY) > 1e-7 {
			t.Errorf("%s: coordinate sums differ: (%v,%v) vs (%v,%v)",
				ordName, got.sumX, got.sumY, ref.sumX, ref.sumY)
		}
		if math.Abs(got.q-ref.q) > 1e-9 {
			t.Errorf("%s: final quality %v != %v", ordName, got.q, ref.q)
		}
	}
}
