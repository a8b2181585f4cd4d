package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Workload sizes. tri-rdr's carabiner mesh and tet-hilbert-k2's cube are
// many times a 2 MiB L2 and below a ~100 MiB L3, so the vertex order
// decides how often a sweep leaves L2.
const (
	triVerts  = 288_000
	tetVerts  = 195_000
	tetJitter = 0.3
)

var workloads = map[string]workload{
	"tri-rdr":        {run: libRun(triSpec), layers: libTrace(triSpec)},
	"tet-hilbert-k2": {run: libRun(tetSpec), layers: libTrace(tetSpec)},
	"service-mixed":  {run: runService, layers: traceService},
}

// triSpec is the default library path on a large 2D mesh: RDR, then 100
// sweeps (the mesh does not reach the tolerance) at nproc workers, so
// sweeps and measurements dominate and the ordering sets their speed.
var triSpec = libSpec{
	name:     "tri-rdr",
	input:    func(seed int64) (meshInput, error) { return triInput(seed, "carabiner", triVerts) },
	ordering: "RDR",
	workers:  nproc,
	reuse:    true,
}

// tetSpec is the domain-decomposed 3D path: the decomposition and the
// heavy mean-ratio measurement dominate a run of about ten sweeps, and the
// Hilbert curve keys leave RDR's walk out of it.
var tetSpec = libSpec{
	name:       "tet-hilbert-k2",
	input:      func(seed int64) (meshInput, error) { return tetInput(seed, tetVerts, tetJitter) },
	ordering:   "HILBERT",
	workers:    1,
	partitions: min(2, nproc),
}

func libRun(spec libSpec) func(context.Context, int64, time.Duration, *Result) error {
	return func(ctx context.Context, seed int64, dur time.Duration, out *Result) error {
		t0 := time.Now()
		in, err := spec.input(seed)
		if err != nil {
			return fmt.Errorf("generating input: %w", err)
		}
		out.Report("input: %d + %d bytes, generated in %.2f s", len(in.Node), len(in.Ele), time.Since(t0).Seconds())
		return runLibrary(ctx, spec, in, dur, out)
	}
}

func libTrace(spec libSpec) func(context.Context, int64, string, *Result) error {
	return func(ctx context.Context, seed int64, spansPath string, out *Result) error {
		in, err := spec.input(seed)
		if err != nil {
			return fmt.Errorf("generating input: %w", err)
		}
		// The untraced twin of the traced pass, for the tracing overhead.
		plain, err := runRep(ctx, spec, in, nil)
		out.Attempted++
		if err != nil {
			return err
		}
		tr := NewTracer(spec.name)
		r, err := libLayers(ctx, spec, in, tr, out)
		if err != nil {
			return err
		}
		if err := checkFingerprint(plain.fp, r.fp); err != nil {
			out.fail(err)
		}
		cov, over := reportCoverage(out, tr.Spans(), []int{r.root}, plain.setup+plain.smooth)
		out.Set("trace.coverage", cov, "ratio")
		out.Set("trace.overhead_s", over, "s")

		// Every traced result carries every per-layer metric, so the lamsd
		// layers, which this workload does not cross, are probed on its own
		// mesh. Their figures are not part of the workload's timed work.
		sess, err := probeSession(spec, in)
		if err != nil {
			return err
		}
		out.Report("lamsd layers, probed on this workload's mesh (not its timed work):")
		if err := serviceLayers(ctx, sess, seed, tr, out); err != nil {
			return err
		}
		return writeSpans(spansPath, tr.Spans())
	}
}

// reportCoverage prints each layer's self time under the roots, and
// returns and prints their sum over the roots' total duration (coverage)
// and the traced minus the untraced end-to-end time (tracing overhead).
func reportCoverage(out *Result, spans []Span, roots []int, untraced float64) (coverage, overhead float64) {
	selfs, total := LayerSelf(spans, roots)
	layers := make([]string, 0, len(selfs))
	for l := range selfs {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	covered := 0.0
	for _, l := range layers {
		out.Report("self time %-10s %10.4f s", l, selfs[l])
		covered += selfs[l]
	}
	out.Report("coverage %.3f of %.4f s; tracing overhead %+.4f s", covered/total, total, total-untraced)
	return covered / total, total - untraced
}

// writeSpans writes every span of the traced pass as one JSON array.
func writeSpans(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
