package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, err := triInput(7, "ocean", 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := triInput(7, "ocean", 1500)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Node, b.Node) || !bytes.Equal(a.Ele, b.Ele) {
		t.Fatal("the same seed gave different 2D inputs")
	}
	c, err := tetInput(7, 800, tetJitter)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tetInput(7, 800, tetJitter)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Node, d.Node) || !bytes.Equal(c.Ele, d.Ele) {
		t.Fatal("the same seed gave different 3D inputs")
	}
	s1, err := serviceSession(7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := serviceSession(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.meshes {
		m1, m2 := s1.meshes[i], s2.meshes[i]
		if !bytes.Equal(m1.Input.Node, m2.Input.Node) || !bytes.Equal(m1.Input.Ele, m2.Input.Ele) ||
			m1.Verts != m2.Verts || m1.Jitter != m2.Jitter {
			t.Fatalf("service mesh %d differs between two sessions of one seed", i)
		}
	}
	o1, c1 := s1.serviceRequests(7, 200)
	o2, c2 := s2.serviceRequests(7, 200)
	if len(o1) != len(o2) || len(c1) != len(c2) {
		t.Fatal("request scripts differ in length")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("open-loop request %d differs: %+v vs %+v", i, o1[i], o2[i])
		}
	}
}

// Different seeds relabel the mesh differently, but after the same
// reordering the smoother reaches the same quality in the same sweeps.
func TestSeedsRelabelButAgree(t *testing.T) {
	ctx := context.Background()
	spec := libSpec{ordering: "RDR", workers: 1}
	var inputs [][]byte
	var finals []float64
	var iters []int
	for _, seed := range []int64{1, 2} {
		in, err := triInput(seed, "crake", 2000)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in.Node)
		r, err := runRep(ctx, spec, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		finals = append(finals, r.res.FinalQuality)
		iters = append(iters, r.res.Iterations)
	}
	if bytes.Equal(inputs[0], inputs[1]) {
		t.Fatal("two seeds gave the same labeling")
	}
	if iters[0] != iters[1] || math.Abs(finals[0]-finals[1]) > 1e-12 {
		t.Fatalf("seeds disagree: iterations %v, final quality %v", iters, finals)
	}
}

func TestSummarizeEdges(t *testing.T) {
	// seq(n) holds 1..n in descending order, so Summarize must sort, and a
	// sample's value is its rank.
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, tc := range []struct {
		n                int
		p50, tailP, tail float64
	}{
		{n: 1, p50: 1, tailP: 100, tail: 1},
		{n: 2, p50: 1, tailP: 50, tail: 1},
		{n: 11, p50: 6, tailP: 100 * 6.0 / 11, tail: 6},
		{n: 100, p50: 50, tailP: 90, tail: 90},
		{n: 1000, p50: 500, tailP: 99, tail: 990},
		{n: 1001, p50: 501, tailP: 100 * 991.0 / 1001, tail: 991},
		{n: 5000, p50: 2500, tailP: 99, tail: 4950},
	} {
		d := Summarize(seq(tc.n), 99)
		if d.N != tc.n || d.P50 != tc.p50 || math.Abs(d.TailP-tc.tailP) > 1e-9 || d.Tail != tc.tail {
			t.Errorf("n=%d: got %+v, want p50 %v, p%v %v", tc.n, d, tc.p50, tc.tailP, tc.tail)
		}
		if beyond := tc.n - int(d.Tail); tc.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if d := Summarize(nil, 99); d != (Dist{}) {
		t.Errorf("empty sample: got %+v", d)
	}
	// Dropped requests are +Inf and land in the tail.
	xs := append(seq(990), make([]float64, 10)...)
	for i := 990; i < 1000; i++ {
		xs[i] = math.Inf(1)
	}
	if d := Summarize(xs, 99); d.Tail != 990 {
		t.Errorf("with ten drops: tail %v, want 990", d.Tail)
	}
	xs[989] = math.Inf(1)
	if d := Summarize(xs, 99); !math.IsInf(d.Tail, 1) {
		t.Errorf("with eleven drops: tail %v, want +Inf", d.Tail)
	}
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
}

func TestCheckerRejectsFlippedCoordinate(t *testing.T) {
	ctx := context.Background()
	in, err := triInput(3, "lake", 1500)
	if err != nil {
		t.Fatal(err)
	}
	spec := libSpec{ordering: "RDR", workers: 2}
	r, err := runRep(ctx, spec, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := decode(in, nil, -1)
	if err == nil {
		rm, err = rm.reorder(spec.ordering)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(ctx, spec, rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFingerprint(r.fp, ref); err != nil {
		t.Fatalf("two workers disagree with the serial reference: %v", err)
	}
	// The reference smoothed rm in place; flip one bit of it.
	m := rm.(triMesh).m
	p := &m.Coords[len(m.Coords)/2]
	p.X = math.Float64frombits(math.Float64bits(p.X) ^ 1)
	if checkFingerprint(fingerprintOf(rm, r.res), ref) == nil {
		t.Fatal("checker accepted a flipped coordinate bit")
	}
}

func TestCheckerRejects5xx(t *testing.T) {
	for op := opKind(0); op < numOps; op++ {
		if o := checkResponse(op, http.StatusInternalServerError, []byte(`{"error":"boom"}`)); o.err == nil {
			t.Errorf("%s: a 500 passed the check", opNames[op])
		}
	}
	ok := []byte(`{"id":"m1","iterations":3,"final_quality":0.9,"accesses":10,"duration_ms":1}`)
	if o := checkResponse(opSmooth, http.StatusOK, ok); o.err != nil {
		t.Errorf("a good smooth response failed: %v", o.err)
	}
	if o := checkResponse(opSmooth, http.StatusOK, []byte(`{"id":`)); o.err == nil {
		t.Error("an undecodable body passed the check")
	}
	if checkExport(2, []byte("3 2 0 1\n1 0 0 1\n"), nil) == nil {
		t.Error("a truncated export passed the check")
	}
}

func TestSelfTimesNested(t *testing.T) {
	// run [0,10] has children decode [1,4] and smooth [3,8], which overlap;
	// decode has a child csr [2,3]; smooth's child sweep [7,9] overruns it
	// and is clipped. run's self time is 10 - |[1,8]| = 3.
	spans := []Span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "mesh.decode", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "smooth.run", Start: 3, End: 8},
		{ID: 3, Parent: 1, Name: "mesh.csr", Start: 2, End: 3},
		{ID: 4, Parent: 2, Name: "smooth.sweep", Start: 7, End: 9},
	}
	self := SelfTimes(spans)
	want := []float64{3, 2, 4, 1, 2}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-12 {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	layers, total := LayerSelf(spans, []int{0})
	if total != 10 || layers["mesh"] != 3 || layers["smooth"] != 6 || layers["run"] != 0 {
		t.Errorf("LayerSelf = %v over %v", layers, total)
	}
}

func TestChildSpansTakeSelfTime(t *testing.T) {
	// A 10 s prepare step holds a 4 s decomposition at its start and a 1 s
	// measurement at its end; a 2 s sweep holds a measurement clipped to 2 s.
	tr := &Tracer{run: "t"}
	tr.spans = []Span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 12},
		{ID: 1, Parent: 0, Name: "smooth.prepare", Start: 0, End: 10},
		{ID: 2, Parent: 0, Name: "smooth.sweep", Start: 10, End: 12},
	}
	tr.Child("partition.decompose", 1, 4, false)
	tr.Child("quality.measure", 1, 1, true)
	tr.Child("quality.measure", 2, 3, true)
	spans := tr.Spans()
	if d := spans[3]; d.Start != 0 || d.End != 4 {
		t.Errorf("decomposition placed at [%v, %v], want [0, 4]", d.Start, d.End)
	}
	layers, _ := LayerSelf(spans, []int{0})
	if layers["smooth"] != 5 || layers["partition"] != 4 || layers["quality"] != 3 {
		t.Errorf("LayerSelf = %v, want smooth 5, partition 4, quality 3", layers)
	}
}
