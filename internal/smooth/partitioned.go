package smooth

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lams/internal/faultinject"
	"lams/internal/mesh"
	"lams/internal/parallel"
	"lams/internal/partition"
	"lams/internal/quality"
)

// partDriver runs the convergence loop across k cooperating engines: the
// mesh is decomposed into k partitions (see internal/partition), each
// partition is smoothed by its own engine on its own goroutine — with its
// own local mesh, scratch, and scheduler — and the engines barrier after
// every Jacobi sweep to exchange halo (ghost) coordinates and publish their
// owned vertices back to the global mesh, where the driver measures quality
// with the same fixed-block ordered reduction the single engine uses. Like
// engine, it is generic over the dimension; PartitionedSmoother is the
// two-dimension facade.
//
// Because Jacobi updates read only the previous sweep's coordinates, and
// each partition's local mesh preserves the global neighbor order (see
// partition.BuildLocal), the run is bit-identical — coordinates, access
// counts, quality history — to the single-engine run at every partition
// count × partitioner × worker count × schedule; the partitioned
// equivalence harness enforces this. In-place updates (the Gauss-Seidel
// ablation and the smart kernel) are inherently sequential across the
// whole mesh and are rejected.
//
// The decomposition (layout, local meshes, exchange wiring) is computed on
// first use and reused while the same mesh is smoothed with the same
// partition configuration — the reorder-once/amortize-many argument one
// level up.
type partDriver[D any, PD dimOps[D]] struct {
	qs        quality.Scratch
	sched     parallel.Scheduler
	schedName string

	// d is the global-mesh dim: the facade stores the run's mesh in it,
	// and prepare resolves the run's kernel and metric into it.
	d D

	// Cached decomposition, valid while (mesh identity, k, partitioner)
	// are unchanged. The mesh pointer plus vertex/element counts identify
	// the topology: smoothing moves coordinates but never edits elements,
	// and any layout of the current topology yields identical results, so
	// coordinate drift cannot invalidate the cache.
	cached any
	nv, ne int
	k      int
	pname  string
	layout *partition.Layout
	parts  []*partUnit[D, PD]
	ex     partition.Exchanger
}

// partUnit is one partition's worker state: its engine (whose dim holds
// the halo-carrying local mesh), index maps, and exchange scratch.
type partUnit[D any, PD dimOps[D]] struct {
	index int
	eng   engine[D, PD]
	l2g   []int32   // local -> global vertex map (monotone)
	visit []int32   // local ids of owned, globally interior vertices
	sIdx  [][]int32 // per send link: local ids of Link.Verts
	rIdx  [][]int32 // per recv link: local ids of Link.Verts
	sBuf  [][]float64

	// Per-run state.
	acc int64
	err error
}

// PartitionedSmoother is the unified multi-engine driver for both
// dimensions: Run decomposes and smooths a triangle mesh, RunTet a
// tetrahedral mesh, each dimension caching its own decomposition. A
// PartitionedSmoother is not safe for concurrent use; the zero value is
// ready to use.
type PartitionedSmoother struct {
	p2 partDriver[dim2, *dim2]
	p3 partDriver[dim3, *dim3]

	// layout is the decomposition built by the most recent run (either
	// dimension); reporting callers (lamsbench) read its Stats.
	layout *partition.Layout
}

// NewPartitionedSmoother returns an empty multi-engine driver whose
// decomposition and scratch grow on first use.
func NewPartitionedSmoother() *PartitionedSmoother { return &PartitionedSmoother{} }

// Reset releases the cached decompositions and scratch; see Smoother.Reset.
func (ps *PartitionedSmoother) Reset() { *ps = PartitionedSmoother{} }

// CachedMesh returns the triangle mesh whose decomposition the driver
// currently caches, or nil. Long-lived holders (engine pools) use it to
// drop decompositions of meshes that no longer exist.
func (ps *PartitionedSmoother) CachedMesh() *mesh.Mesh {
	m, _ := ps.p2.cached.(*mesh.Mesh)
	return m
}

// CachedTetMesh is CachedMesh for the tetrahedral decomposition.
func (ps *PartitionedSmoother) CachedTetMesh() *mesh.TetMesh {
	m, _ := ps.p3.cached.(*mesh.TetMesh)
	return m
}

// Layout returns the decomposition of the most recent run, or nil before
// the first run.
func (ps *PartitionedSmoother) Layout() *partition.Layout { return ps.layout }

// Run smooths the triangle mesh in place across the partitions and returns
// the run statistics. The cancellation contract matches the single
// engine's: on ctx cancellation — mid-sweep or mid-exchange — the global
// mesh holds the coordinates of the last sweep every partition completed.
func (ps *PartitionedSmoother) Run(ctx context.Context, m *mesh.Mesh, opt Options) (Result, error) {
	ps.p2.d.m = m
	res, err := ps.p2.run(ctx, opt)
	if ps.p2.layout != nil {
		ps.layout = ps.p2.layout
	}
	return res, err
}

// RunTet is Run over a tetrahedral mesh; same driver, same contracts.
func (ps *PartitionedSmoother) RunTet(ctx context.Context, m *mesh.TetMesh, opt Options) (Result, error) {
	ps.p3.d.m = m
	res, err := ps.p3.run(ctx, opt)
	if ps.p3.layout != nil {
		ps.layout = ps.p3.layout
	}
	return res, err
}

// RunPartitioned smooths the triangle mesh with opt.Partitions cooperating
// engines using a one-shot driver. Callers that smooth repeatedly should
// hold a PartitionedSmoother, which caches the decomposition across runs.
func RunPartitioned(ctx context.Context, m *mesh.Mesh, opt Options) (Result, error) {
	return NewPartitionedSmoother().Run(ctx, m, opt)
}

// RunPartitionedTet is RunPartitioned over a tetrahedral mesh.
func RunPartitionedTet(ctx context.Context, m *mesh.TetMesh, opt Options) (Result, error) {
	return NewPartitionedSmoother().RunTet(ctx, m, opt)
}

func (ps *partDriver[D, PD]) run(ctx context.Context, opt Options) (Result, error) {
	d := PD(&ps.d)
	opt = opt.withDefaults()
	if err := opt.validate(true); err != nil {
		return Result{}, err
	}
	k := opt.Partitions
	if k == 0 {
		k = 1
	}
	if k < 1 {
		return Result{}, fmt.Errorf("smooth: partitions must be >= 1, got %d", opt.Partitions)
	}
	inPlace, err := d.prepare(&opt)
	if err != nil {
		return Result{}, err
	}
	if inPlace {
		return Result{}, fmt.Errorf("smooth: partitioned runs require Jacobi updates; kernel %q updates in place", d.kernelName())
	}

	// Checkpoint/resume: the fingerprint excludes the partition
	// configuration, so a checkpoint from a single-engine run resumes
	// here (and vice versa) bit-identically — Jacobi updates make the
	// decomposition irrelevant to the result. The restore runs before the
	// per-partition refresh below, so the locals start from the
	// checkpointed coordinates.
	var fp string
	if opt.Checkpoint != nil || opt.Resume != nil {
		fp = configFingerprint[D, PD](d, &opt)
	}
	if opt.Resume != nil {
		if err := opt.Resume.validateResume(fp, d.axes(), d.boundary(), len(d.interior())); err != nil {
			return Result{}, err
		}
		d.restoreCoords(opt.Resume.Coords)
	}

	if err := ps.resolveScheduler(opt.Schedule); err != nil {
		return Result{}, err
	}
	if err := ps.setup(k, opt.Partitioner); err != nil {
		return Result{}, err
	}

	// Per-run engine preparation: refresh local coordinates from the
	// global mesh, resolve each engine's scheduler, adopt the driver's
	// resolved kernel, and size the Jacobi next buffer.
	for _, pu := range ps.parts {
		ld := PD(&pu.eng.d)
		ld.refreshLocal(&ps.d, pu.l2g)
		if err := pu.eng.resolveScheduler(opt.Schedule); err != nil {
			return Result{}, err
		}
		ld.adoptKernel(&ps.d)
		ld.ensureNext()
	}
	if ce, ok := ps.ex.(*partition.ChanExchanger); ok {
		ce.Reset()
		ce.Faults = opt.Faults
	}

	var res Result
	var prevQ float64
	startIter := 0
	if cp := opt.Resume; cp != nil {
		// Continue from the checkpoint; see the single engine's resume —
		// counters and history carry over, the initial measurement is
		// skipped. The checkpointed visit order (if any) is ignored:
		// partitioned sweeps derive their per-partition visit lists from
		// the decomposition, and Jacobi results are order-independent.
		res = Result{Iterations: cp.Iteration, InitialQuality: cp.InitialQuality, Accesses: cp.Accesses}
		res.QualityHistory = append(make([]float64, 0, max(opt.MaxIters, len(cp.QualityHistory))), cp.QualityHistory...)
		prevQ = cp.InitialQuality
		if n := len(cp.QualityHistory); n > 0 {
			prevQ = cp.QualityHistory[n-1]
		}
		res.FinalQuality = prevQ
		startIter = cp.Iteration
		if opt.Progress != nil {
			opt.Progress(cp.Iteration, prevQ)
		}
	} else {
		// The global quality passes run over the global mesh with the
		// fixed 1024-element reduction blocking, exactly as the single
		// engine measures, so the values are bit-identical at any worker
		// count and schedule.
		q0, err := d.measure(ctx, &ps.qs, opt.Workers, ps.sched)
		if err != nil {
			return Result{}, err
		}
		res = Result{InitialQuality: q0}
		res.FinalQuality = res.InitialQuality
		if opt.Progress != nil {
			opt.Progress(0, q0)
		}
		if opt.MaxIters > 0 {
			res.QualityHistory = make([]float64, 0, opt.MaxIters)
		}
		prevQ = res.InitialQuality
	}

	sinceCkpt := 0
	for iter := startIter; iter < opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if prevQ >= opt.GoalQuality {
			break
		}
		if err := opt.Faults.Fire(faultinject.PointEngineSweep); err != nil {
			return res, err
		}

		// Phase 1 — sweep: every partition runs one Jacobi sweep over its
		// owned interior vertices. The barrier before publishing is what
		// keeps the global mesh untorn: no partition's sweep-i result
		// becomes visible unless every partition completed sweep i.
		ps.fanOut(func(pu *partUnit[D, PD]) {
			pu.acc, pu.err = pu.eng.sweep(ctx, false, pu.visit, &opt)
		})
		firstErr := error(nil)
		for _, pu := range ps.parts {
			res.Accesses += pu.acc
			if pu.err != nil && firstErr == nil {
				firstErr = pu.err
			}
		}
		if firstErr != nil {
			// Canceled mid-sweep: no partition published, the global mesh
			// still holds the last completed sweep everywhere.
			return res, firstErr
		}

		// Phase 2 — publish and halo exchange: each partition copies its
		// owned coordinates into the (disjoint) global slots, then trades
		// halo payloads with its peers. The publish is unconditional, so
		// even if cancellation interrupts the exchange, the global mesh
		// holds all of sweep i by the time the barrier joins.
		// With fault injection armed, one partition's injected exchange
		// failure must not strand its peers in their blocking receives, so
		// the round gets a cancelable context torn down on first error.
		exCtx, exCancel := ctx, context.CancelFunc(nil)
		if opt.Faults != nil {
			exCtx, exCancel = context.WithCancel(ctx)
		}
		ps.fanOut(func(pu *partUnit[D, PD]) {
			PD(&pu.eng.d).publish(&ps.d, pu.l2g, pu.visit)
			pu.err = pu.exchange(exCtx, ps.ex)
			if pu.err != nil && exCancel != nil {
				exCancel()
			}
		})
		if exCancel != nil {
			exCancel()
		}
		res.Iterations++
		var exErr error
		for _, pu := range ps.parts {
			if pu.err == nil {
				continue
			}
			// Prefer the injected (or otherwise original) error over the
			// context.Canceled its round-teardown induced in the peers.
			if exErr == nil || (errors.Is(exErr, context.Canceled) && !errors.Is(pu.err, context.Canceled)) {
				exErr = pu.err
			}
		}
		if exErr != nil {
			return res, exErr
		}

		if res.Iterations%opt.CheckEvery != 0 && iter != opt.MaxIters-1 {
			continue
		}
		q, err := d.measure(ctx, &ps.qs, opt.Workers, ps.sched)
		if err != nil {
			return res, err
		}
		res.QualityHistory = append(res.QualityHistory, q)
		res.FinalQuality = q
		if opt.Progress != nil {
			opt.Progress(res.Iterations, q)
		}
		if q-prevQ < opt.Tol {
			break
		}
		prevQ = q

		// Emit after the publish barrier and the measurement: the global
		// mesh holds every partition's sweep-i coordinates, so the
		// snapshot reads it directly.
		if opt.Checkpoint != nil {
			if sinceCkpt++; sinceCkpt >= opt.CheckpointEvery {
				sinceCkpt = 0
				opt.Checkpoint(makeCheckpoint[D, PD](d, fp, &res, nil))
			}
		}
	}
	return res, nil
}

// fanOut runs fn on every partition engine concurrently and joins them —
// the per-phase barrier of the driver loop.
func (ps *partDriver[D, PD]) fanOut(fn func(pu *partUnit[D, PD])) {
	if len(ps.parts) == 1 {
		fn(ps.parts[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ps.parts))
	for _, pu := range ps.parts {
		go func(pu *partUnit[D, PD]) {
			defer wg.Done()
			fn(pu)
		}(pu)
	}
	wg.Wait()
}

// exchange gathers the partition's outbound halo payloads, trades them
// through the exchanger, and scatters the received coordinates over the
// partition's ghost slots.
func (pu *partUnit[D, PD]) exchange(ctx context.Context, ex partition.Exchanger) error {
	if len(pu.sBuf) == 0 && len(pu.rIdx) == 0 {
		return nil
	}
	d := PD(&pu.eng.d)
	for i, idx := range pu.sIdx {
		d.gather(idx, pu.sBuf[i])
	}
	incoming, err := ex.Exchange(ctx, pu.index, pu.sBuf)
	if err != nil {
		return err
	}
	for i, idx := range pu.rIdx {
		d.scatter(idx, incoming[i])
	}
	return nil
}

// setup (re)builds the cached decomposition when the mesh identity or the
// partition configuration changed since the previous run.
func (ps *partDriver[D, PD]) setup(k int, pname string) error {
	d := PD(&ps.d)
	if pname == "" {
		pname = partition.BFS
	}
	if ps.cached == d.meshAny() && ps.nv == d.numVerts() && ps.ne == d.elemCount() && ps.k == k && ps.pname == pname {
		return nil
	}
	layout, err := partition.New(d.partitionInput(), k, pname)
	if err != nil {
		return fmt.Errorf("smooth: partitioning: %w", err)
	}
	boundary := d.boundary()
	parts := make([]*partUnit[D, PD], k)
	for p := range layout.Parts {
		part := &layout.Parts[p]
		pu := &partUnit[D, PD]{index: p}
		l2g, err := PD(&pu.eng.d).buildLocal(&ps.d, part)
		if err != nil {
			return fmt.Errorf("smooth: partition %d local mesh: %w", p, err)
		}
		pu.l2g = l2g
		for l, g := range l2g {
			if layout.Owner[g] == int32(p) && !boundary[g] {
				pu.visit = append(pu.visit, int32(l))
			}
		}
		pu.sIdx, pu.sBuf = linkLocals(part.Sends, l2g, d.axes())
		pu.rIdx, _ = linkLocals(part.Recvs, l2g, 0)
		parts[p] = pu
	}
	ps.cached, ps.nv, ps.ne = d.meshAny(), d.numVerts(), d.elemCount()
	ps.k, ps.pname = k, pname
	ps.layout, ps.parts = layout, parts
	ps.ex = partition.NewChanExchanger(layout, d.axes())
	return nil
}

// linkLocals maps each link's global vertex list to local indices via
// binary search over the monotone l2g map, and sizes a payload buffer of
// dim floats per vertex (dim 0 skips the buffers — receive payloads are
// owned by the exchanger).
func linkLocals(links []partition.Link, l2g []int32, dim int) ([][]int32, [][]float64) {
	idx := make([][]int32, len(links))
	var bufs [][]float64
	if dim > 0 {
		bufs = make([][]float64, len(links))
	}
	for i, lk := range links {
		loc := make([]int32, len(lk.Verts))
		for j, g := range lk.Verts {
			loc[j] = int32(sort.Search(len(l2g), func(x int) bool { return l2g[x] >= g }))
		}
		idx[i] = loc
		if dim > 0 {
			bufs[i] = make([]float64, dim*len(lk.Verts))
		}
	}
	return idx, bufs
}

// resolveScheduler caches the driver's measurement scheduler; see
// engine.resolveScheduler.
func (ps *partDriver[D, PD]) resolveScheduler(name string) (err error) {
	ps.sched, ps.schedName, err = resolveScheduler(ps.sched, ps.schedName, name)
	return err
}
