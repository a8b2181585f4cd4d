package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lams/internal/partition"
	"lams/internal/quality"
	"lams/pkg/lams"
)

// libSpec is a library workload: how its input is made and how the timed
// part reorders and smooths it.
type libSpec struct {
	name     string
	input    func(seed int64) (meshInput, error)
	ordering string
	// workers is the worker count of each engine; partitions > 1 runs one
	// engine per partition.
	workers, partitions int
	// reuse smooths with a fresh lams.Smoother rather than the one-shot
	// package function.
	reuse bool
	// maxIters is the sweep cap (0: the library default).
	maxIters int
}

func (s libSpec) smoothOpts() []lams.SmoothOption {
	opts := []lams.SmoothOption{lams.WithWorkers(s.workers)}
	if s.partitions > 1 {
		opts = append(opts, lams.WithPartitions(s.partitions), lams.WithPartitioner(lams.DefaultPartitioner))
	}
	if s.maxIters > 0 {
		opts = append(opts, lams.WithMaxIterations(s.maxIters))
	}
	return opts
}

// rep is one timed pass of a library workload.
type rep struct {
	setup, smooth float64 // seconds
	allocMB       float64
	// ticks are the times of the progress callbacks: the initial
	// measurement, then one per sweep.
	ticks []time.Time
	res   lams.SmoothResult
	fp    fingerprint
	// mallocs during decode+CSR and during the smooth call.
	meshAllocs, smoothAllocs uint64
	// reordered is a copy of the mesh as it entered the smoother, and input
	// the decoded mesh in input order; both are kept when traced.
	reordered, input benchMesh
	// root, prepare and sweeps are the ids of the traced pass's spans.
	root, prepare int
	sweeps        []int
}

// sweepIntervals are the times between consecutive progress callbacks after
// the initial one: each is one sweep plus its quality measurement.
func (r *rep) sweepIntervals() []float64 {
	var out []float64
	for i := 1; i < len(r.ticks); i++ {
		out = append(out, r.ticks[i].Sub(r.ticks[i-1]).Seconds())
	}
	return out
}

// runRep decodes, reorders and smooths the input once. With a tracer, the
// reorder runs as its three steps, each in a span, and the sweeps are
// recorded from the progress callbacks.
func runRep(ctx context.Context, spec libSpec, in meshInput, tr *Tracer) (rep, error) {
	var r rep
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs

	start := time.Now()
	root := tr.Begin("run", -1)
	m, err := decode(in, tr, root)
	if err != nil {
		return r, fmt.Errorf("decoding input: %w", err)
	}
	if tr != nil {
		runtime.ReadMemStats(&ms)
		r.meshAllocs = ms.Mallocs - mallocs0
		r.input = m // reordering copies, so m stays in input order
	}
	var rm benchMesh
	if tr == nil {
		rm, err = m.reorder(spec.ordering)
	} else {
		rm, err = tracedReorder(m, spec.ordering, tr, root)
	}
	if err != nil {
		return r, fmt.Errorf("reordering: %w", err)
	}
	r.setup = time.Since(start).Seconds()
	if tr != nil {
		// The copy is the benchmark's allocation, not the program's.
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r.reordered = rm.clone()
		runtime.ReadMemStats(&ms)
		alloc0 += ms.TotalAlloc - before
		mallocs0 = ms.Mallocs
	}

	var sm *lams.Smoother
	if spec.reuse {
		sm = lams.NewSmoother()
	}
	r.ticks = make([]time.Time, 0, 128)
	opts := append(spec.smoothOpts(), lams.WithProgress(func(int, float64) {
		r.ticks = append(r.ticks, time.Now())
	}))
	sid := tr.Begin("smooth.run", root)
	smoothStart := time.Now()
	r.res, err = rm.smooth(ctx, sm, opts...)
	tr.End(sid)
	smoothEnd := time.Now()
	tr.End(root)
	if err != nil {
		return r, fmt.Errorf("smoothing: %w", err)
	}
	r.smooth = smoothEnd.Sub(smoothStart).Seconds()
	runtime.ReadMemStats(&ms)
	r.allocMB = float64(ms.TotalAlloc-alloc0) / 1e6
	if tr != nil {
		r.smoothAllocs = ms.Mallocs - mallocs0
		r.root, r.prepare = root, -1
		if len(r.ticks) > 0 {
			r.prepare = tr.Record("smooth.prepare", sid, smoothStart, r.ticks[0])
		}
		for i := 1; i < len(r.ticks); i++ {
			r.sweeps = append(r.sweeps, tr.Record("smooth.sweep", sid, r.ticks[i-1], r.ticks[i]))
		}
	}
	r.fp = fingerprintOf(rm, r.res)
	return r, nil
}

// tracedReorder is lams.Reorder/ReorderTet spelled out as its three calls:
// initial vertex qualities, the ordering's permutation, and the renumbering.
func tracedReorder(m benchMesh, ordering string, tr *Tracer, parent int) (benchMesh, error) {
	ord, err := lams.OrderingByName(ordering)
	if err != nil {
		return nil, err
	}
	id := tr.Begin("order.seed_quality", parent)
	vq := m.seedQualities()
	tr.End(id)
	id = tr.Begin("order.compute", parent)
	perm, err := ord.Compute(m.graph(), vq)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	id = tr.Begin("order.renumber", parent)
	rm, err := m.renumber(perm)
	tr.End(id)
	return rm, err
}

// reference smooths m, the reordered input, with the untimed serial
// single engine. Every timed run must match it bit for bit: Jacobi updates
// make the result independent of workers and partitions.
func reference(ctx context.Context, spec libSpec, m benchMesh) (fingerprint, error) {
	serial := spec
	serial.workers, serial.partitions = 1, 0
	res, err := m.smooth(ctx, nil, serial.smoothOpts()...)
	if err != nil {
		return fingerprint{}, fmt.Errorf("reference run: %w", err)
	}
	return fingerprintOf(m, res), nil
}

// runLibrary measures a library workload for at least dur and sets its
// end-to-end metrics.
func runLibrary(ctx context.Context, spec libSpec, in meshInput, dur time.Duration, out *Result) error {
	var setups, smooths, allocs, sweeps []float64
	var fps []fingerprint
	var sweepCount int
	start := time.Now()
	for out.Attempted < minReps || time.Since(start) < dur {
		r, err := runRep(ctx, spec, in, nil)
		out.Attempted++
		if err != nil {
			out.fail(err)
			continue
		}
		fps = append(fps, r.fp)
		setups = append(setups, r.setup)
		smooths = append(smooths, r.smooth)
		allocs = append(allocs, r.allocMB)
		for _, s := range r.sweepIntervals() {
			sweeps = append(sweeps, 1e3*s)
		}
		sweepCount += r.res.Iterations
	}
	if len(fps) == 0 {
		return fmt.Errorf("no timed pass succeeded")
	}
	// The reference starts from the reordered mesh, made again untimed:
	// decoding and reordering are deterministic.
	first, err := decode(in, nil, -1)
	if err == nil {
		first, err = first.reorder(spec.ordering)
	}
	if err != nil {
		return fmt.Errorf("reference input: %w", err)
	}
	out.workingSet = float64(first.workingSet())
	t0 := time.Now()
	ref, err := reference(ctx, spec, first)
	if err != nil {
		return err
	}
	out.Report("serial reference: %d sweeps in %.2f s", ref.Iterations, time.Since(t0).Seconds())
	for _, fp := range fps {
		if err := checkFingerprint(fp, ref); err != nil {
			out.fail(err)
		}
	}
	// Set-up is the cheaper half of a pass: repeat it alone until the
	// median rests on minSetups samples.
	for len(setups) < minSetups {
		t0 := time.Now()
		m, err := decode(in, nil, -1)
		if err == nil {
			_, err = m.reorder(spec.ordering)
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	lat := Summarize(sweeps, 99)
	out.Report("sweep latency: p50 %.3f ms, p%.1f %.3f ms over %d sweeps", lat.P50, lat.TailP, lat.Tail, lat.N)
	out.Set("setup_s", Median(setups), "s")
	out.Set("smooth_s", Median(smooths), "s")
	out.Set("alloc_mb", Median(allocs), "MB")
	out.Set("p50_ms", lat.P50, "ms")
	out.Set("p99_ms", lat.Tail, "ms")
	out.Set("throughput_rps", float64(sweepCount)/sum(smooths), "1/s")
	return nil
}

// minReps is the fewest timed passes a run makes, and minSetups how many
// set-ups its setup_s median rests on.
const (
	minReps   = 2
	minSetups = 4
)

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// probeSweeps is how many sweeps each extra probe of the traced run times.
const probeSweeps = 20

// sweepTime runs probeSweeps sweeps on a copy of m, measuring quality only
// after the last, and returns the time of one sweep: the span between the
// initial and the final progress callback, less one quality measurement at
// the run's measuring worker count, over probeSweeps.
func sweepTime(ctx context.Context, m benchMesh, workers, partitions int) (float64, error) {
	spec := libSpec{workers: workers, partitions: partitions, maxIters: probeSweeps}
	var ticks []time.Time
	opts := append(spec.smoothOpts(), lams.WithTolerance(-1), lams.WithCheckEvery(probeSweeps),
		lams.WithProgress(func(int, float64) { ticks = append(ticks, time.Now()) }))
	if _, err := m.clone().smooth(ctx, nil, opts...); err != nil {
		return 0, err
	}
	if len(ticks) != 2 {
		return 0, fmt.Errorf("sweep probe: %d progress calls, want 2", len(ticks))
	}
	meas, err := measureTime(ctx, m, workers)
	if err != nil {
		return 0, err
	}
	return (ticks[1].Sub(ticks[0]).Seconds() - meas) / probeSweeps, nil
}

// measureTime is the median time of three global quality passes.
func measureTime(ctx context.Context, m benchMesh, workers int) (float64, error) {
	var qs quality.Scratch
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := m.measure(ctx, &qs, workers); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return Median(ts), nil
}

// libLayers runs one traced pass into tr plus the extra probes and sets
// every library per-layer metric. It returns the traced pass for the
// coverage report.
func libLayers(ctx context.Context, spec libSpec, in meshInput, tr *Tracer, out *Result) (rep, error) {
	r, err := runRep(ctx, spec, in, tr)
	out.Attempted++
	if err != nil {
		return r, err
	}
	ref, err := reference(ctx, spec, r.reordered.clone())
	if err != nil {
		return r, err
	}
	if err := checkFingerprint(r.fp, ref); err != nil {
		out.fail(err)
	}
	// Partitioned runs measure quality at the per-engine worker count.
	measure, err := measureTime(ctx, r.reordered, spec.workers)
	if err != nil {
		return r, err
	}
	spans := tr.Spans()
	spanTime := func(name string) float64 {
		for _, s := range spans {
			if s.Name == name {
				return s.End - s.Start
			}
		}
		return 0
	}
	// Ordering effect: the same sweep on the input order and on the
	// reordered mesh, measured and as the paper's model predicts. The
	// reordered probe is also the pass's sweep time: a callback interval
	// less one separately timed measurement goes negative where the
	// measurement is nearly all of the interval, as in 3D.
	sweepIn, err := sweepTime(ctx, r.input, spec.workers, spec.partitions)
	if err != nil {
		return r, err
	}
	sweep, err := sweepTime(ctx, r.reordered, spec.workers, spec.partitions)
	if err != nil {
		return r, err
	}
	ws := float64(r.reordered.workingSet())
	out.Set("mesh.decode_s", spanTime("mesh.decode"), "s")
	out.Set("mesh.csr_s", spanTime("mesh.csr"), "s")
	out.Set("mesh.allocs", float64(r.meshAllocs), "count")
	out.Set("order.seed_quality_s", spanTime("order.seed_quality"), "s")
	out.Set("order.compute_s", spanTime("order.compute"), "s")
	out.Set("order.renumber_s", spanTime("order.renumber"), "s")
	out.Set("quality.measure_s", measure, "s")
	out.Set("quality.measures", float64(r.res.Iterations+1), "count")
	out.Set("smooth.prepare_s", spanTime("smooth.prepare")-measure, "s")
	out.Set("smooth.sweep_s", sweep, "s")
	out.Set("smooth.iterations", float64(r.res.Iterations), "count")
	out.Set("smooth.accesses", float64(r.res.Accesses), "count")
	out.Set("smooth.gbps_computed", ws/sweep/1e9, "GB/s")
	out.Set("smooth.allocs", float64(r.smoothAllocs), "count")
	out.Report("working set (computed): %.1f MB for %d vertices", ws/1e6, r.reordered.NumVerts())
	out.workingSet = ws

	locIn, err := r.input.analyze(ctx)
	if err != nil {
		return r, err
	}
	locRe, err := r.reordered.analyze(ctx)
	if err != nil {
		return r, err
	}
	predIn, err := r.input.predict(ctx, spec.workers)
	if err != nil {
		return r, err
	}
	predRe, err := r.reordered.predict(ctx, spec.workers)
	if err != nil {
		return r, err
	}
	out.Set("order.sweep_gain", sweepIn/sweep, "ratio")
	out.Set("smooth.sweep_s_input", sweepIn, "s")
	out.Set("reuse.mean_distance", locRe.MeanReuseDistance, "lines")
	out.Set("reuse.mean_distance_input", locIn.MeanReuseDistance, "lines")
	out.Set("cache.l2_miss_rate", locRe.MissRates[1], "ratio")
	out.Set("cache.l3_miss_rate", locRe.MissRates[2], "ratio")
	out.Set("cache.l2_miss_rate_input", locIn.MissRates[1], "ratio")
	out.Set("cache.l3_miss_rate_input", locIn.MissRates[2], "ratio")
	out.Set("perfmodel.sweep_s", predRe, "s")
	out.Set("perfmodel.sweep_s_input", predIn, "s")
	out.Set("perfmodel.gain", predIn/predRe, "ratio")
	out.Report("%-10s %12s %12s %12s %12s %14s", "order", "sweep_s", "model_s", "L2 miss", "L3 miss", "reuse dist")
	out.Report("%-10s %12.6f %12.6f %12.4f %12.4f %14.1f", "input", sweepIn, predIn, locIn.MissRates[1], locIn.MissRates[2], locIn.MeanReuseDistance)
	out.Report("%-10s %12.6f %12.6f %12.4f %12.4f %14.1f", spec.ordering, sweep, predRe, locRe.MissRates[1], locRe.MissRates[2], locRe.MeanReuseDistance)
	out.Report("sweep gain: measured %.2fx, Eq. (2) predicts %.2fx", sweepIn/sweep, predIn/predRe)

	// Worker scaling on one engine.
	one, err := sweepTime(ctx, r.reordered, 1, 0)
	if err != nil {
		return r, err
	}
	all, err := sweepTime(ctx, r.reordered, nproc, 0)
	if err != nil {
		return r, err
	}
	out.Set("parallel.speedup", one/all, "ratio")
	out.Report("sweep at 1 worker %.6f s, at %d workers %.6f s", one, nproc, all)

	// Domain decomposition at the workload's partition count (nproc for a
	// single-engine workload) of one worker each, against the single engine
	// at nproc workers.
	k := spec.partitions
	if k < 2 {
		k = nproc
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	did := tr.Begin("partition.decompose", -1)
	layout, err := partition.New(r.reordered.partitionInput(), k, partition.BFS)
	if err == nil {
		err = r.reordered.buildLocals(layout)
	}
	tr.End(did)
	if err != nil {
		return r, fmt.Errorf("decomposing: %w", err)
	}
	runtime.ReadMemStats(&ms)
	decomp := tr.Spans()[did]
	decompose := decomp.End - decomp.Start
	st := layout.Stats()
	sendVerts := 0
	for _, p := range st.Parts {
		sendVerts += p.SendVerts
	}
	dim := 2
	if in.Dim == 3 {
		dim = 3
	}
	parted, err := sweepTime(ctx, r.reordered, 1, k)
	if err != nil {
		return r, err
	}
	out.Set("partition.decompose_s", decompose, "s")
	out.Set("partition.overhead_s", parted-all, "s")
	out.Set("partition.ghost_frac", st.GhostFraction, "ratio")
	out.Set("partition.halo_kb_computed", float64(sendVerts*dim*8)/1024, "KiB")
	out.Set("partition.allocs", float64(ms.Mallocs-mallocs0), "count")

	// The library measures quality at the end of the prepare step and of
	// every sweep, and a partitioned run decomposes the mesh at the start of
	// its prepare step, each inside the one smooth call the pass times.
	// Their spans are placed at the lengths measured above, so that their
	// time counts to the layer that spent it.
	// The decomposition keeps clear of the measurement, so the two never
	// overlap and count twice.
	if spec.partitions > 1 {
		tr.Child("partition.decompose", r.prepare, min(decompose, spanTime("smooth.prepare")-measure), false)
	}
	for _, id := range append([]int{r.prepare}, r.sweeps...) {
		tr.Child("quality.measure", id, measure, true)
	}
	return r, nil
}
