package smooth

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lams/internal/partition"
)

// partDriver is the partitioned layout of a run: the mesh is decomposed
// into k partitions (see internal/partition), each partition is swept by
// its own engine on its own goroutine — with its own local mesh, scratch,
// and scheduler — and the engines barrier after every Jacobi sweep to
// exchange halo (ghost) coordinates and publish their owned vertices back
// to the global mesh. The Smoother's engine for the dimension runs the
// convergence loop around these sweeps and measures the global mesh with
// the same fixed-block ordered reduction as on a single-engine run. Like
// engine, the driver is generic over the dimension; a Smoother allocates
// one per dimension on the first run with Partitions > 1.
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
	// Cached decomposition, valid while (mesh identity, k, partitioner)
	// are unchanged. The mesh pointer plus vertex/element counts identify
	// the topology: smoothing moves coordinates but never edits elements,
	// and any layout of the current topology yields identical results, so
	// coordinate drift cannot invalidate the cache.
	cached any
	nv, ne int
	k      int
	pname  string
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

// run sweeps e's mesh across opt.Partitions engines. e has already
// resolved the run (see engine.begin) and runs the convergence loop; the
// driver supplies the sweep. A resumed run ignores the checkpointed visit
// order: the partitions derive their visit lists from the decomposition,
// and Jacobi results do not depend on the order.
func (p *partDriver[D, PD]) run(ctx context.Context, e *engine[D, PD], opt *Options, fp string) (Result, error) {
	if err := p.setup(&e.d, opt.Partitions, opt.Partitioner); err != nil {
		return Result{}, err
	}

	// Per-run engine preparation: refresh local coordinates from the
	// global mesh, resolve each engine's scheduler, adopt the run's
	// resolved kernel, and size the Jacobi next buffer.
	for _, pu := range p.parts {
		ld := PD(&pu.eng.d)
		ld.refreshLocal(&e.d, pu.l2g)
		var err error
		if pu.eng.sched, pu.eng.schedName, err = resolveScheduler(pu.eng.sched, pu.eng.schedName, opt.Schedule); err != nil {
			return Result{}, err
		}
		ld.adoptKernel(&e.d)
		ld.ensureNext()
	}
	if ce, ok := p.ex.(*partition.ChanExchanger); ok {
		ce.Reset()
		ce.Faults = opt.Faults
	}
	return e.converge(ctx, opt, fp, nil, func() (int64, bool, error) {
		return p.sweep(ctx, &e.d, opt)
	})
}

// sweep is one partitioned iteration: every partition sweeps, then
// publishes into global and exchanges halos. The publish completes even
// when the exchange fails, so from then on the sweep counts as committed.
func (p *partDriver[D, PD]) sweep(ctx context.Context, global *D, opt *Options) (acc int64, committed bool, err error) {
	// Phase 1 — sweep: every partition runs one Jacobi sweep over its
	// owned interior vertices. The barrier before publishing is what
	// keeps the global mesh untorn: no partition's sweep-i result
	// becomes visible unless every partition completed sweep i.
	p.fanOut(func(pu *partUnit[D, PD]) {
		pu.acc, pu.err = pu.eng.sweep(ctx, false, pu.visit, opt)
	})
	for _, pu := range p.parts {
		acc += pu.acc
		if pu.err != nil && err == nil {
			err = pu.err
		}
	}
	if err != nil {
		// Canceled mid-sweep: no partition published, the global mesh
		// still holds the last completed sweep everywhere.
		return acc, false, err
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
	p.fanOut(func(pu *partUnit[D, PD]) {
		PD(&pu.eng.d).publish(global, pu.l2g, pu.visit)
		pu.err = pu.exchange(exCtx, p.ex)
		if pu.err != nil && exCancel != nil {
			exCancel()
		}
	})
	if exCancel != nil {
		exCancel()
	}
	for _, pu := range p.parts {
		if pu.err == nil {
			continue
		}
		// Prefer the injected (or otherwise original) error over the
		// context.Canceled its round-teardown induced in the peers.
		if err == nil || (errors.Is(err, context.Canceled) && !errors.Is(pu.err, context.Canceled)) {
			err = pu.err
		}
	}
	return acc, true, err
}

// fanOut runs fn on every partition engine concurrently and joins them —
// the per-phase barrier of the driver loop.
func (p *partDriver[D, PD]) fanOut(fn func(pu *partUnit[D, PD])) {
	var wg sync.WaitGroup
	wg.Add(len(p.parts))
	for _, pu := range p.parts {
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

// setup (re)builds the cached decomposition of global's mesh when the mesh
// identity or the partition configuration changed since the previous run.
func (p *partDriver[D, PD]) setup(global *D, k int, pname string) error {
	d := PD(global)
	if pname == "" {
		pname = partition.BFS
	}
	if p.cached == d.meshAny() && p.nv == d.numVerts() && p.ne == d.elemCount() && p.k == k && p.pname == pname {
		return nil
	}
	layout, err := partition.New(d.partitionInput(), k, pname)
	if err != nil {
		return fmt.Errorf("smooth: partitioning: %w", err)
	}
	boundary := d.boundary()
	parts := make([]*partUnit[D, PD], k)
	for i := range layout.Parts {
		part := &layout.Parts[i]
		pu := &partUnit[D, PD]{index: i}
		l2g, err := PD(&pu.eng.d).buildLocal(global, part)
		if err != nil {
			return fmt.Errorf("smooth: partition %d local mesh: %w", i, err)
		}
		pu.l2g = l2g
		for l, g := range l2g {
			if layout.Owner[g] == int32(i) && !boundary[g] {
				pu.visit = append(pu.visit, int32(l))
			}
		}
		pu.sIdx, pu.sBuf = linkLocals(part.Sends, l2g, d.axes())
		pu.rIdx, _ = linkLocals(part.Recvs, l2g, 0)
		parts[i] = pu
	}
	p.cached, p.nv, p.ne = d.meshAny(), d.numVerts(), d.elemCount()
	p.k, p.pname = k, pname
	p.parts = parts
	p.ex = partition.NewChanExchanger(layout, d.axes())
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
