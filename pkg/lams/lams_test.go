package lams_test

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"lams/pkg/lams"
)

func testMesh(t testing.TB, n int) *lams.Mesh {
	t.Helper()
	m, err := lams.GenerateMesh("carabiner", n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateAndQuality(t *testing.T) {
	m := testMesh(t, 1500)
	if m.NumVerts() == 0 || m.NumTris() == 0 {
		t.Fatalf("empty mesh: %s", m.Summary())
	}
	q := lams.GlobalQuality(m, nil)
	if q <= 0 || q > 1 {
		t.Errorf("global quality %v out of (0,1]", q)
	}
	if got := len(lams.VertexQualities(m, nil)); got != m.NumVerts() {
		t.Errorf("vertex qualities length %d", got)
	}
	if len(lams.Domains()) != 9 {
		t.Errorf("Domains() = %v, want the paper's nine", lams.Domains())
	}
}

func TestReorderAndOrderings(t *testing.T) {
	m := testMesh(t, 1500)
	for _, name := range lams.Orderings() {
		re, err := lams.Reorder(m, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re.Mesh.NumVerts() != m.NumVerts() {
			t.Errorf("%s: vertex count changed", name)
		}
		if len(re.NewToOld) != m.NumVerts() {
			t.Errorf("%s: permutation length %d", name, len(re.NewToOld))
		}
	}
	if _, err := lams.Reorder(m, "NOPE"); err == nil {
		t.Error("unknown ordering accepted")
	}
	ord, err := lams.OrderingByName("RDR")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lams.ReorderWith(m, ord); err != nil {
		t.Fatal(err)
	}
}

func TestSmoothFunctionalOptions(t *testing.T) {
	m := testMesh(t, 1500)
	res, err := lams.Smooth(context.Background(), m,
		lams.WithMaxIterations(5),
		lams.WithTolerance(-1),
		lams.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 {
		t.Errorf("iterations = %d, want 5", res.Iterations)
	}
	if res.FinalQuality <= res.InitialQuality {
		t.Errorf("quality did not improve: %v -> %v", res.InitialQuality, res.FinalQuality)
	}
}

// TestSmoothSchedules is the public-API face of the cross-schedule
// equivalence guarantee: every name Schedules() reports works through
// WithSchedule, and the smoothed coordinates are bit-identical to the
// static default at every worker count; an unregistered name errors with
// the known names.
func TestSmoothSchedules(t *testing.T) {
	schedules := lams.Schedules()
	for _, want := range []string{"static", "guided", "stealing"} {
		if !slices.Contains(schedules, want) {
			t.Fatalf("Schedules() = %v missing %q", schedules, want)
		}
	}

	base := testMesh(t, 1500)
	ref := base.Clone()
	refRes, err := lams.Smooth(context.Background(), ref,
		lams.WithMaxIterations(4), lams.WithTolerance(-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, schedule := range schedules {
		for _, workers := range []int{2, 8} {
			m := base.Clone()
			res, err := lams.Smooth(context.Background(), m,
				lams.WithSchedule(schedule),
				lams.WithWorkers(workers),
				lams.WithMaxIterations(4),
				lams.WithTolerance(-1))
			if err != nil {
				t.Fatalf("%s/%d: %v", schedule, workers, err)
			}
			if res.FinalQuality != refRes.FinalQuality || res.Accesses != refRes.Accesses {
				t.Errorf("%s/%d: result diverged from static: %+v vs %+v", schedule, workers, res, refRes)
			}
			for i := range ref.Coords {
				if m.Coords[i] != ref.Coords[i] {
					t.Fatalf("%s/%d: vertex %d differs bit-wise from the static run", schedule, workers, i)
				}
			}
		}
	}

	if _, err := lams.Smooth(context.Background(), base.Clone(), lams.WithSchedule("fifo")); err == nil {
		t.Error("unknown schedule accepted")
	} else if !strings.Contains(err.Error(), "stealing") {
		t.Errorf("error %q does not list the registered schedules", err)
	}
}

// TestSmoothCheckEvery is the public-API face of the measurement cadence:
// WithCheckEvery(k) must leave the smoothed coordinates bit-identical to
// the measure-every-sweep run, record only the measured iterations in the
// history, always measure the final sweep, reject k < 0, and apply to
// tetrahedral runs too.
func TestSmoothCheckEvery(t *testing.T) {
	base := testMesh(t, 1500)
	ctx := context.Background()
	ref := base.Clone()
	refRes, err := lams.Smooth(ctx, ref, lams.WithMaxIterations(6), lams.WithTolerance(-1))
	if err != nil {
		t.Fatal(err)
	}
	got := base.Clone()
	res, err := lams.Smooth(ctx, got,
		lams.WithMaxIterations(6),
		lams.WithTolerance(-1),
		lams.WithWorkers(4),
		lams.WithCheckEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.Coords {
		if got.Coords[v] != ref.Coords[v] {
			t.Fatalf("vertex %d differs bit-wise under WithCheckEvery", v)
		}
	}
	if len(res.QualityHistory) != 2 { // iterations 4 and the final 6th
		t.Errorf("history length = %d, want 2", len(res.QualityHistory))
	}
	if res.FinalQuality != refRes.FinalQuality {
		t.Errorf("final quality = %v, want bit-identical %v", res.FinalQuality, refRes.FinalQuality)
	}

	if _, err := lams.Smooth(ctx, base.Clone(), lams.WithCheckEvery(-1)); err == nil {
		t.Error("negative check-every accepted")
	}

	tet, err := lams.GenerateTetCubeVerts(800, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := lams.SmoothTet(ctx, tet,
		lams.WithMaxIterations(5),
		lams.WithTolerance(-1),
		lams.WithCheckEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(tres.QualityHistory) != 3 { // iterations 2, 4, and the final 5th
		t.Errorf("tet history length = %d, want 3", len(tres.QualityHistory))
	}
}

func TestSmoothCancellation(t *testing.T) {
	m := testMesh(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lams.Smooth(ctx, m, lams.WithMaxIterations(10)); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSmoothRejectsNegativePartitions pins WithPartitions(k < 0) to the
// same treatment as the other negative counts: the run fails before it
// touches the mesh.
func TestSmoothRejectsNegativePartitions(t *testing.T) {
	m := testMesh(t, 600)
	before := m.Clone()
	if _, err := lams.Smooth(context.Background(), m, lams.WithPartitions(-2)); err == nil {
		t.Error("WithPartitions(-2) accepted")
	}
	for i := range before.Coords {
		if m.Coords[i] != before.Coords[i] {
			t.Fatalf("vertex %d moved by a rejected run", i)
		}
	}
}

func TestSmootherReuseAndKernels(t *testing.T) {
	base := testMesh(t, 1200)
	s := lams.NewSmoother()
	for _, kern := range []lams.Kernel{
		lams.PlainKernel(),
		lams.SmartKernel(nil),
		lams.WeightedKernel(),
		lams.ConstrainedKernel(0.05),
	} {
		m := base.Clone()
		res, err := s.Smooth(context.Background(), m,
			lams.WithKernel(kern),
			lams.WithMaxIterations(3),
			lams.WithTolerance(-1))
		if err != nil {
			t.Fatalf("%s: %v", kern.Name(), err)
		}
		if res.Iterations != 3 {
			t.Errorf("%s: iterations = %d", kern.Name(), res.Iterations)
		}
	}
}

func TestSmoothTraced(t *testing.T) {
	m := testMesh(t, 1000)
	res, tb, err := lams.SmoothTraced(context.Background(), m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Iterations() != 2 {
		t.Errorf("trace iterations = %d", tb.Iterations())
	}
	if int64(tb.Total()) != res.Accesses {
		t.Errorf("trace total %d != accesses %d", tb.Total(), res.Accesses)
	}
}

func TestAnalyzeLocalityRDRBeatsRandom(t *testing.T) {
	m := testMesh(t, 2000)
	reports := map[string]*lams.LocalityReport{}
	for _, name := range []string{"RANDOM", "RDR"} {
		re, err := lams.Reorder(m, name)
		if err != nil {
			t.Fatal(err)
		}
		before := re.Mesh.Coords[0]
		rep, err := lams.AnalyzeLocality(context.Background(), re.Mesh)
		if err != nil {
			t.Fatal(err)
		}
		if re.Mesh.Coords[0] != before {
			t.Errorf("%s: AnalyzeLocality mutated its input mesh", name)
		}
		if rep.Iterations != 1 || rep.Accesses == 0 || len(rep.MissRates) != 3 {
			t.Errorf("%s: malformed report %+v", name, rep)
		}
		reports[name] = rep
	}
	// The paper's headline: RDR collapses reuse distances relative to the
	// worst-case ordering.
	if reports["RDR"].MeanReuseDistance >= reports["RANDOM"].MeanReuseDistance {
		t.Errorf("RDR mean reuse distance %v not below RANDOM %v",
			reports["RDR"].MeanReuseDistance, reports["RANDOM"].MeanReuseDistance)
	}
	if reports["RDR"].PenaltyCycles >= reports["RANDOM"].PenaltyCycles {
		t.Errorf("RDR penalty %v not below RANDOM %v",
			reports["RDR"].PenaltyCycles, reports["RANDOM"].PenaltyCycles)
	}
}

func TestPipelineRun(t *testing.T) {
	res, err := lams.Run(context.Background(),
		lams.FromDomain("crake", 1500),
		lams.WithOrdering("BFS"),
		lams.WithSmoothing(lams.WithMaxIterations(5), lams.WithTolerance(-1)),
		lams.WithLocalityAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reordered.Ordering != "BFS" {
		t.Errorf("ordering = %q", res.Reordered.Ordering)
	}
	if res.Smooth.Iterations != 5 {
		t.Errorf("smooth iterations = %d", res.Smooth.Iterations)
	}
	if res.Locality == nil || res.Locality.Accesses == 0 {
		t.Errorf("locality report missing: %+v", res.Locality)
	}
	if res.Mesh == nil || res.Mesh.NumVerts() == 0 {
		t.Error("pipeline returned no mesh")
	}
}

func TestPipelineNeedsSource(t *testing.T) {
	if _, err := lams.Run(context.Background()); err == nil {
		t.Error("pipeline without a source accepted")
	}
}

func TestPipelineFromMeshDoesNotMutateInput(t *testing.T) {
	m := testMesh(t, 1000)
	before := append([]lams.Point(nil), m.Coords...)
	if _, err := lams.Run(context.Background(), lams.FromMesh(m),
		lams.WithSmoothing(lams.WithMaxIterations(3), lams.WithTolerance(-1))); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if m.Coords[i] != before[i] {
			t.Fatalf("input mesh vertex %d mutated", i)
		}
	}
}

func TestMeshRoundTripFiles(t *testing.T) {
	m := testMesh(t, 800)
	base := filepath.Join(t.TempDir(), "m")
	if err := m.SaveFiles(base); err != nil {
		t.Fatal(err)
	}
	m2, err := lams.LoadMesh(base)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumVerts() != m.NumVerts() || m2.NumTris() != m.NumTris() {
		t.Errorf("round trip changed mesh: %s vs %s", m2.Summary(), m.Summary())
	}
}

// registerStubOnce guards the test registration so repeated in-process runs
// (go test -count=2, -cpu lists) do not trip the registry's duplicate panic.
var registerStubOnce sync.Once

func TestRegisterOrderingExtends(t *testing.T) {
	registerStubOnce.Do(func() {
		lams.RegisterOrdering("ZZZ-PUBLIC-STUB", func() lams.Ordering { return identityOrdering{} })
	})
	m := testMesh(t, 600)
	re, err := lams.Reorder(m, "ZZZ-PUBLIC-STUB")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range re.NewToOld {
		if int32(i) != v {
			t.Fatalf("identity ordering permuted vertex %d -> %d", i, v)
		}
	}
}

type identityOrdering struct{}

func (identityOrdering) Name() string { return "ZZZ-PUBLIC-STUB" }

func (identityOrdering) Compute(g lams.Graph, _ []float64) ([]int32, error) {
	perm := make([]int32, g.NumVerts())
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm, nil
}
