package smooth

import (
	"context"
	"fmt"

	"lams/internal/geom"
	"lams/internal/mesh"
	"lams/internal/order"
	"lams/internal/parallel"
	"lams/internal/partition"
	"lams/internal/quality"
	"lams/internal/trace"
)

// This file is the Dim abstraction: everything about a smoothing run that
// actually depends on the spatial dimension — the mesh type, metric and
// kernel resolution, coordinate snapshots and halo payloads, and the
// per-vertex sweep loop bodies — concentrated in two small value types,
// dim2 and dim3. The generic engine (engine.go) and partitioned driver
// (partitioned.go) are written once against the dimOps constraint and
// instantiated at both.
//
// The mesh's Coords array is the only coordinate state: sweeps read it and
// write it (in place, or through the Jacobi next buffer), and every other
// layer reads it directly. Every per-vertex loop lives inside a dim method
// on a concrete receiver (*dim2 or *dim3), so no dictionary call enters a
// hot loop; the engine calls dim methods only at per-run and per-sweep
// granularity. Within a loop, the kernel is called through its concrete
// type where a type switch (once per chunk) finds the default kernel, and
// through the interface otherwise; see jacobiBody.

// dimOps is the compile-time plug a dimension provides to the generic
// engine. D is the dimension's state struct (dim2 or dim3); the constraint
// requires pointer receivers so the methods mutate the engine-owned value
// in place without allocation.
type dimOps[D any] interface {
	*D

	// prepare resolves the run's kernel and metric from the unified
	// Options — applying the dimension's defaults, hoisting the smart
	// kernel's nil accept metric, and rejecting options that select the
	// other dimension's rules — and reports whether the sweep updates in
	// place (Gauss-Seidel style).
	prepare(opt *Options) (inPlace bool, err error)
	// kernelName names the resolved kernel for error messages.
	kernelName() string
	// release drops the per-run references (mesh, kernel, metric) so a
	// pooled engine does not pin them between runs; scratch stays.
	release()

	// numVerts, interior, boundary and graph expose the mesh topology the
	// engine's traversal and bookkeeping need.
	numVerts() int
	interior() []int32
	boundary() []bool
	graph() order.Graph
	// vertexQualities computes the per-vertex qualities driving the
	// quality-greedy traversal, with the run's metric and measurement
	// configuration.
	vertexQualities(ctx context.Context, qs *quality.Scratch, workers int, sched parallel.Scheduler) ([]float64, error)

	// snapshotCoords returns a fresh axis-interleaved copy of the current
	// coordinates, and restoreCoords writes such a snapshot back into the
	// mesh. Plain float64 copies in both directions, so checkpoint/resume
	// preserves every bit pattern.
	snapshotCoords() []float64
	restoreCoords(src []float64)
	// configDetail renders the resolved kernel and metric for the
	// checkpoint fingerprint.
	configDetail() string

	// ensureNext sizes the Jacobi next buffer for the current mesh.
	ensureNext()
	// measure returns the global quality of the current coordinates.
	measure(ctx context.Context, qs *quality.Scratch, workers int, sched parallel.Scheduler) (float64, error)

	// The sweep bodies. The in-place sweep is a whole-visit serial loop;
	// the Jacobi sweep is a chunk body run by the engine's scheduler and
	// committed by commitNext afterwards.
	sweepInPlace(tb *trace.Buffer, visit []int32) int64
	jacobiBody(tb *trace.Buffer, counts []int64, visit []int32) func(worker int, ch parallel.Chunk)
	commitNext(visit []int32)

	// Partitioned-driver hooks: decomposition input, local-mesh
	// construction, per-sweep publish and halo gather/scatter.
	meshAny() any
	elemCount() int
	axes() int
	partitionInput() partition.Input
	buildLocal(src *D, part *partition.Part) ([]int32, error)
	refreshLocal(src *D, l2g []int32)
	adoptKernel(src *D)
	publish(dst *D, l2g, visit []int32)
	gather(idx []int32, buf []float64)
	scatter(idx []int32, buf []float64)
}

// dim2 is the triangle-mesh dimension: the mesh, the run's resolved kernel
// and metric, and the Jacobi next buffer.
type dim2 struct {
	m    *mesh.Mesh
	kern Kernel
	met  quality.Metric
	next []geom.Point
}

// dim3 is the tetrahedral dimension; see dim2.
type dim3 struct {
	m    *mesh.TetMesh
	kern TetKernel
	met  quality.TetMetric
	next []geom.Point3
}

func (d *dim2) prepare(opt *Options) (bool, error) {
	if opt.TetMetric != nil || opt.TetKernel != nil {
		return false, fmt.Errorf("smooth: options select tetrahedral rules (TetMetric/TetKernel) but the run is 2D; use RunTet")
	}
	kern := opt.Kernel
	if kern == nil {
		kern = PlainKernel{}
	}
	// Resolve SmartKernel's nil-default metric once here instead of on
	// every vertex visit inside Update, so the in-place sweep stops
	// re-branching per vertex.
	if sk, ok := kern.(SmartKernel); ok && sk.Metric == nil {
		kern = SmartKernel{Metric: quality.EdgeRatio{}}
	}
	met := opt.Metric
	if met == nil {
		met = quality.EdgeRatio{}
	}
	d.kern, d.met = kern, met
	return opt.GaussSeidel || kern.InPlace(), nil
}

func (d *dim3) prepare(opt *Options) (bool, error) {
	if opt.Metric != nil || opt.Kernel != nil {
		return false, fmt.Errorf("smooth: options select triangle rules (Metric/Kernel) but the run is tetrahedral; use Run")
	}
	kern := opt.TetKernel
	if kern == nil {
		kern = PlainKernel3{}
	}
	// Resolve SmartKernel3's nil-default metric once per run; see
	// dim2.prepare.
	if sk, ok := kern.(SmartKernel3); ok && sk.Metric == nil {
		kern = SmartKernel3{Metric: quality.MeanRatio3{}}
	}
	met := opt.TetMetric
	if met == nil {
		met = quality.MeanRatio3{}
	}
	d.kern, d.met = kern, met
	return opt.GaussSeidel || kern.InPlace(), nil
}

func (d *dim2) kernelName() string { return d.kern.Name() }
func (d *dim3) kernelName() string { return d.kern.Name() }

func (d *dim2) release() { d.m, d.kern, d.met = nil, nil, nil }
func (d *dim3) release() { d.m, d.kern, d.met = nil, nil, nil }

func (d *dim2) numVerts() int     { return d.m.NumVerts() }
func (d *dim3) numVerts() int     { return d.m.NumVerts() }
func (d *dim2) interior() []int32 { return d.m.InteriorVerts }
func (d *dim3) interior() []int32 { return d.m.InteriorVerts }
func (d *dim2) boundary() []bool  { return d.m.IsBoundary }
func (d *dim3) boundary() []bool  { return d.m.IsBoundary }

// graph exposes the mesh through the Graph view the orderings use; a
// pointer-to-interface conversion, so no allocation.
func (d *dim2) graph() order.Graph { return d.m }
func (d *dim3) graph() order.Graph { return d.m }

func (d *dim2) vertexQualities(ctx context.Context, qs *quality.Scratch, workers int, sched parallel.Scheduler) ([]float64, error) {
	return qs.VertexQualitiesParallel(ctx, d.m, d.met, workers, sched)
}

func (d *dim3) vertexQualities(ctx context.Context, qs *quality.Scratch, workers int, sched parallel.Scheduler) ([]float64, error) {
	return qs.TetVertexQualitiesParallel(ctx, d.m, d.met, workers, sched)
}

func (d *dim2) snapshotCoords() []float64 {
	out := make([]float64, 2*len(d.m.Coords))
	for i, p := range d.m.Coords {
		out[2*i], out[2*i+1] = p.X, p.Y
	}
	return out
}

func (d *dim3) snapshotCoords() []float64 {
	out := make([]float64, 3*len(d.m.Coords))
	for i, p := range d.m.Coords {
		out[3*i], out[3*i+1], out[3*i+2] = p.X, p.Y, p.Z
	}
	return out
}

func (d *dim2) restoreCoords(src []float64) {
	for i := range d.m.Coords {
		d.m.Coords[i] = geom.Point{X: src[2*i], Y: src[2*i+1]}
	}
}

func (d *dim3) restoreCoords(src []float64) {
	for i := range d.m.Coords {
		d.m.Coords[i] = geom.Point3{X: src[3*i], Y: src[3*i+1], Z: src[3*i+2]}
	}
}

// configDetail renders the resolved kernel and metric. The built-in
// kernels and metrics are plain value structs, so %#v is deterministic
// across processes — which is what lets a persisted checkpoint resume
// after a restart.
func (d *dim2) configDetail() string { return fmt.Sprintf("kernel=%#v metric=%#v", d.kern, d.met) }
func (d *dim3) configDetail() string { return fmt.Sprintf("kernel=%#v metric=%#v", d.kern, d.met) }

func (d *dim2) ensureNext() {
	if n := len(d.m.Coords); cap(d.next) < n {
		d.next = make([]geom.Point, n)
	} else {
		d.next = d.next[:n]
	}
}

func (d *dim3) ensureNext() {
	if n := len(d.m.Coords); cap(d.next) < n {
		d.next = make([]geom.Point3, n)
	} else {
		d.next = d.next[:n]
	}
}

func (d *dim2) measure(ctx context.Context, qs *quality.Scratch, workers int, sched parallel.Scheduler) (float64, error) {
	return qs.GlobalParallel(ctx, d.m, d.met, workers, sched)
}

func (d *dim3) measure(ctx context.Context, qs *quality.Scratch, workers int, sched parallel.Scheduler) (float64, error) {
	return qs.TetGlobalParallel(ctx, d.m, d.met, workers, sched)
}

// sweepInPlace applies each update to the mesh as soon as it is computed,
// serially in visit order (the order is the semantics). A traced sweep
// records the whole visit's touches first; the stream is the same as
// recording each vertex just before its update.
func (d *dim2) sweepInPlace(tb *trace.Buffer, visit []int32) int64 {
	m, kern := d.m, d.kern
	traceTouches(tb, 0, m, visit)
	var acc int64
	for _, v := range visit {
		m.Coords[v] = kern.Update(m, v)
		acc += int64(m.Degree(v)) + 1
	}
	return acc
}

func (d *dim3) sweepInPlace(tb *trace.Buffer, visit []int32) int64 {
	m, kern := d.m, d.kern
	traceTouches(tb, 0, m, visit)
	var acc int64
	for _, v := range visit {
		m.Coords[v] = kern.Update(m, v)
		acc += int64(m.Degree(v)) + 1
	}
	return acc
}

// jacobiBody builds the chunk body of one Jacobi sweep: each chunk's
// updates go to the next buffer, to be committed after the sweep. The type
// switch runs once per chunk: the default kernel is called through its
// concrete type, which the compiler calls directly instead of through the
// interface's method table; every other kernel, custom ones included, takes
// the interface case. A traced chunk records its touches (each vertex, then
// its neighbors) before it updates. The body allocates once per sweep (the
// closure).
func (d *dim2) jacobiBody(tb *trace.Buffer, counts []int64, visit []int32) func(worker int, ch parallel.Chunk) {
	m, kern, next := d.m, d.kern, d.next
	return func(w int, ch parallel.Chunk) {
		vs := visit[ch.Lo:ch.Hi]
		traceTouches(tb, w, m, vs)
		var acc int64
		switch k := kern.(type) {
		case PlainKernel:
			for _, v := range vs {
				next[v] = k.Update(m, v)
				acc += int64(m.Degree(v)) + 1
			}
		default:
			for _, v := range vs {
				next[v] = kern.Update(m, v)
				acc += int64(m.Degree(v)) + 1
			}
		}
		counts[w] += acc
	}
}

// jacobiBody has no concrete case in 3D: the plain 3D sweep measured no
// faster through a direct PlainKernel3 call than through the interface.
func (d *dim3) jacobiBody(tb *trace.Buffer, counts []int64, visit []int32) func(worker int, ch parallel.Chunk) {
	m, kern, next := d.m, d.kern, d.next
	return func(w int, ch parallel.Chunk) {
		vs := visit[ch.Lo:ch.Hi]
		traceTouches(tb, w, m, vs)
		var acc int64
		for _, v := range vs {
			next[v] = kern.Update(m, v)
			acc += int64(m.Degree(v)) + 1
		}
		counts[w] += acc
	}
}

func (d *dim2) commitNext(visit []int32) {
	for _, v := range visit {
		d.m.Coords[v] = d.next[v]
	}
}

func (d *dim3) commitNext(visit []int32) {
	for _, v := range visit {
		d.m.Coords[v] = d.next[v]
	}
}

func (d *dim2) meshAny() any   { return d.m }
func (d *dim3) meshAny() any   { return d.m }
func (d *dim2) elemCount() int { return d.m.NumTris() }
func (d *dim3) elemCount() int { return d.m.NumTets() }
func (d *dim2) axes() int      { return 2 }
func (d *dim3) axes() int      { return 3 }

func (d *dim2) partitionInput() partition.Input { return partition.FromMesh(d.m) }
func (d *dim3) partitionInput() partition.Input { return partition.FromTetMesh(d.m) }

// buildLocal constructs this dim's mesh as the halo-carrying local mesh of
// one partition of src's mesh, returning the monotone local-to-global
// vertex map.
func (d *dim2) buildLocal(src *dim2, part *partition.Part) ([]int32, error) {
	local, l2g, err := partition.BuildLocal(src.m, part)
	if err != nil {
		return nil, err
	}
	d.m = local
	return l2g, nil
}

func (d *dim3) buildLocal(src *dim3, part *partition.Part) ([]int32, error) {
	local, l2g, err := partition.BuildLocalTet(src.m, part)
	if err != nil {
		return nil, err
	}
	d.m = local
	return l2g, nil
}

// refreshLocal copies the current global coordinates into the local mesh.
func (d *dim2) refreshLocal(src *dim2, l2g []int32) {
	for l, g := range l2g {
		d.m.Coords[l] = src.m.Coords[g]
	}
}

func (d *dim3) refreshLocal(src *dim3, l2g []int32) {
	for l, g := range l2g {
		d.m.Coords[l] = src.m.Coords[g]
	}
}

// adoptKernel copies the driver's resolved kernel into a partition's local
// dim for the run.
func (d *dim2) adoptKernel(src *dim2) { d.kern = src.kern }
func (d *dim3) adoptKernel(src *dim3) { d.kern = src.kern }

// publish copies the partition's owned interior coordinates into their
// global-mesh slots. Partitions own disjoint vertex sets, so concurrent
// publishes never write the same slot.
func (d *dim2) publish(dst *dim2, l2g, visit []int32) {
	for _, l := range visit {
		dst.m.Coords[l2g[l]] = d.m.Coords[l]
	}
}

func (d *dim3) publish(dst *dim3, l2g, visit []int32) {
	for _, l := range visit {
		dst.m.Coords[l2g[l]] = d.m.Coords[l]
	}
}

// gather packs the listed local coordinates into a halo payload buffer
// (axes() floats per vertex); scatter is its inverse over received
// payloads.
func (d *dim2) gather(idx []int32, buf []float64) {
	for j, l := range idx {
		p := d.m.Coords[l]
		buf[2*j], buf[2*j+1] = p.X, p.Y
	}
}

func (d *dim3) gather(idx []int32, buf []float64) {
	for j, l := range idx {
		p := d.m.Coords[l]
		buf[3*j], buf[3*j+1], buf[3*j+2] = p.X, p.Y, p.Z
	}
}

func (d *dim2) scatter(idx []int32, buf []float64) {
	for j, l := range idx {
		d.m.Coords[l] = geom.Point{X: buf[2*j], Y: buf[2*j+1]}
	}
}

func (d *dim3) scatter(idx []int32, buf []float64) {
	for j, l := range idx {
		d.m.Coords[l] = geom.Point3{X: buf[3*j], Y: buf[3*j+1], Z: buf[3*j+2]}
	}
}

// traceTouches records the access pattern of updating visit's vertices on
// core's stream: each vertex, then each of its neighbors. A nil buffer
// records nothing.
func traceTouches(tb *trace.Buffer, core int, g order.Graph, visit []int32) {
	if tb == nil {
		return
	}
	for _, v := range visit {
		tb.Access(core, v)
		for _, w := range g.Neighbors(v) {
			tb.Access(core, w)
		}
	}
}
