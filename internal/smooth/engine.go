package smooth

import (
	"context"
	"fmt"

	"lams/internal/faultinject"
	"lams/internal/mesh"
	"lams/internal/order"
	"lams/internal/parallel"
	"lams/internal/quality"
)

// engine is the dimension-generic sweep engine. It runs the convergence
// loop of Algorithm 1 with any kernel, any traversal, and any worker count,
// and it owns the per-run scratch buffers (the visit sequence, the
// per-worker access counters, the quality scratch) so repeated runs reuse
// them instead of reallocating on the hot path. Everything
// dimension-specific — the mesh, kernels, metrics, sweep loop bodies —
// lives in the embedded dim value D, reached through the dimOps constraint
// (see dim.go).
type engine[D any, PD dimOps[D]] struct {
	d      D
	visit  []int32
	counts []int64
	qs     quality.Scratch

	// sched is the resolved chunk scheduler, cached by name so repeated
	// runs with the same Options.Schedule reuse its per-worker scratch.
	sched     parallel.Scheduler
	schedName string
}

// Smoother is the unified sweep engine for both dimensions: Run smooths a
// triangle mesh, RunTet a tetrahedral mesh, through the same generic
// convergence loop instantiated per dimension.
//
// A Smoother is not safe for concurrent use; each goroutine that smooths
// should own one. The zero value is ready to use.
type Smoother struct {
	e2 engine[dim2, *dim2]
	e3 engine[dim3, *dim3]
}

// NewSmoother returns an empty engine whose scratch buffers grow on first
// use and are reused by subsequent runs.
func NewSmoother() *Smoother { return &Smoother{} }

// Reset releases the engine's scratch buffers, returning it to its zero
// state. Long-lived holders (engine pools) call it to stop an engine that
// last smoothed an unusually large mesh from pinning that high-water-mark
// memory forever; the next run re-grows the buffers to fit its mesh.
func (s *Smoother) Reset() { *s = Smoother{} }

// Run smooths the triangle mesh in place and returns the run statistics.
// The context cancels between iterations and between worker chunks: on
// cancellation the mesh holds the coordinates of the last completed sweep,
// the partial Result reflects the work done, and ctx.Err() is returned.
func (s *Smoother) Run(ctx context.Context, m *mesh.Mesh, opt Options) (Result, error) {
	s.e2.d.m = m
	return s.e2.run(ctx, opt)
}

// RunTet is Run over a tetrahedral mesh; same loop, same contracts.
func (s *Smoother) RunTet(ctx context.Context, m *mesh.TetMesh, opt Options) (Result, error) {
	s.e3.d.m = m
	return s.e3.run(ctx, opt)
}

func (e *engine[D, PD]) run(ctx context.Context, opt Options) (Result, error) {
	d := PD(&e.d)
	opt = opt.withDefaults()
	if err := opt.validate(false); err != nil {
		return Result{}, err
	}
	// In-place (Gauss-Seidel style) sweeps always run serially — the update
	// order is the semantics — but Workers > 1 is still meaningful: the
	// quality measurements parallelize (bit-identically; see
	// quality.GlobalParallel), which is where in-place runs spend much of
	// their time.
	inPlace, err := d.prepare(&opt)
	if err != nil {
		return Result{}, err
	}
	// The engine references the mesh, kernel, and metric only for the
	// duration of the run; drop them on exit so pooled engines do not pin
	// retired meshes.
	defer d.release()

	// Checkpoint/resume: the fingerprint ties a checkpoint to the
	// trajectory-affecting configuration; a resume restores the snapshot's
	// coordinates before the traversal computes.
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

	if err := e.resolveScheduler(opt.Schedule); err != nil {
		return Result{}, err
	}

	// A resumed run replays the checkpointed visit order verbatim
	// (validateResume checked it is a permutation of the interior). For
	// in-place kernels the order is the semantics, so this is what makes
	// the resume exact; for Jacobi kernels it merely skips recomputing a
	// traversal whose order cannot affect the result anyway.
	var visit []int32
	if opt.Resume != nil && len(opt.Resume.Visit) > 0 {
		visit = opt.Resume.Visit
	} else {
		visit, err = e.visitSequence(ctx, &opt)
		if err != nil {
			return Result{}, err
		}
	}
	if !inPlace {
		d.ensureNext()
	}

	var res Result
	var prevQ float64
	startIter := 0
	if cp := opt.Resume; cp != nil {
		// Continue exactly where the checkpoint left off: counters and
		// history carry over, and the initial measurement is skipped — it
		// already happened, before the first sweep of the original run.
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
		q0, err := d.measure(ctx, &e.qs, opt.Workers, e.sched)
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
		acc, err := e.sweep(ctx, inPlace, visit, &opt)
		res.Accesses += acc
		if err != nil {
			return res, err
		}
		if opt.Trace != nil {
			opt.Trace.EndIteration()
		}
		res.Iterations++
		if res.Iterations%opt.CheckEvery != 0 && iter != opt.MaxIters-1 {
			continue
		}

		q, err := d.measure(ctx, &e.qs, opt.Workers, e.sched)
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

		// Emit only at measured sweeps that did not end the run: prevQ has
		// just been advanced, so the snapshot's last history entry is the
		// exact prevQ a resumed loop reconstructs.
		if opt.Checkpoint != nil {
			if sinceCkpt++; sinceCkpt >= opt.CheckpointEvery {
				sinceCkpt = 0
				opt.Checkpoint(makeCheckpoint[D, PD](d, fp, &res, visit))
			}
		}
	}
	return res, nil
}

// sweep performs one iteration with the resolved kernel. Jacobi-style
// kernels compute into the next buffer across worker chunks — distributed
// by the resolved scheduler — and commit afterwards; in-place kernels apply
// each update immediately (serial). Returns the number of vertex accesses.
func (e *engine[D, PD]) sweep(ctx context.Context, inPlace bool, visit []int32, opt *Options) (int64, error) {
	d := PD(&e.d)
	if inPlace {
		return d.sweepInPlace(opt.Trace, visit), nil
	}

	// Dynamic schedules hand a worker many chunks, so the per-worker access
	// counts accumulate (each worker id runs on one goroutine per sweep, so
	// no atomics are needed).
	counts := e.countsBuffer(opt.Workers)
	err := e.sched.Run(ctx, len(visit), opt.Workers, d.jacobiBody(opt.Trace, counts, visit))
	var accesses int64
	for _, c := range counts {
		accesses += c
	}
	if err != nil {
		// Canceled mid-sweep: the next buffer may be incomplete, so do not
		// commit it; the mesh keeps the previous iteration's coordinates.
		return accesses, err
	}
	d.commitNext(visit)
	return accesses, nil
}

// visitSequence returns the interior vertices in the order the sweeps visit
// them, reusing the engine's visit buffer for the quality-greedy traversal.
// The initial vertex qualities driving the greedy walk are computed on the
// same workers and scheduler as the measurements.
func (e *engine[D, PD]) visitSequence(ctx context.Context, opt *Options) ([]int32, error) {
	d := PD(&e.d)
	if opt.Traversal == StorageOrder {
		return d.interior(), nil
	}
	vq, err := d.vertexQualities(ctx, &e.qs, opt.Workers, e.sched)
	if err != nil {
		return nil, err
	}
	w, err := order.GreedyWalk(d.graph(), vq, false)
	if err != nil {
		return nil, fmt.Errorf("smooth: computing traversal: %w", err)
	}
	e.visit = e.visit[:0]
	boundary := d.boundary()
	for _, v := range w.Heads {
		if !boundary[v] {
			e.visit = append(e.visit, v)
		}
	}
	if len(e.visit) != len(d.interior()) {
		return nil, fmt.Errorf("smooth: traversal visited %d of %d interior vertices", len(e.visit), len(d.interior()))
	}
	return e.visit, nil
}

// resolveScheduler caches the chunk scheduler for the named schedule (""
// means static). Keeping the instance across runs preserves its per-worker
// scratch, which is what makes the dynamic schedules near-zero-alloc in
// steady state.
func (e *engine[D, PD]) resolveScheduler(name string) (err error) {
	e.sched, e.schedName, err = resolveScheduler(e.sched, e.schedName, name)
	return err
}

// resolveScheduler implements the by-name scheduler cache shared by the
// single engine and the partitioned driver.
func resolveScheduler(cur parallel.Scheduler, curName, name string) (parallel.Scheduler, string, error) {
	if name == "" {
		name = parallel.ScheduleStatic
	}
	if cur != nil && curName == name {
		return cur, curName, nil
	}
	sched, err := parallel.SchedulerByName(name)
	if err != nil {
		return cur, curName, fmt.Errorf("smooth: %w", err)
	}
	return sched, name, nil
}

// countsBuffer returns a zeroed per-worker access-count slice.
func (e *engine[D, PD]) countsBuffer(n int) []int64 {
	if cap(e.counts) < n {
		e.counts = make([]int64, n)
	}
	e.counts = e.counts[:n]
	for i := range e.counts {
		e.counts[i] = 0
	}
	return e.counts
}
