package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"lams/internal/mesh"
	"lams/internal/order"
	"lams/internal/partition"
	"lams/internal/quality"
	"lams/internal/smooth"
)

// The -json benchmark: the full converge loop (sweep + global quality
// measurement per iteration) across dimensions and worker counts (1 and
// runtime.NumCPU()), written as machine-readable JSON. The committed
// BENCH_smooth.json at the repository root is this report from the
// CI-class container; CI regenerates and uploads the report on every run so
// the quality trajectory is never empty again.
//
// Every op is warmed up once on the very mesh and engine its reps then
// time, so the reps measure the steady state: a partitioned engine's cached
// decomposition belongs to the timed mesh, not to a throwaway copy. Ops
// compared with each other (the single engine against the partitioned
// driver) are timed in interleaved reps — single op, partitioned op, single
// op, ... — so a shared-CPU frequency or quota shift during the run
// degrades both alike instead of poisoning the comparison.
//
// The report also carries a "setup" section: cold-start phase timings
// (mesh build, CSR construction, Hilbert key sort, greedy walk) so the
// one-time ordering cost the paper amortizes (§5.3) has a measured
// trajectory next to the steady-state sweep numbers.

// benchIters is the converge-loop length of each benchmark op. Tol is
// disabled, so every op executes exactly this many sweeps plus
// benchIters+1 global quality measurements.
const benchIters = 10

// benchResult is one benchmark cell.
type benchResult struct {
	Name     string `json:"name"`
	Dim      int    `json:"dim"`
	Mesh     string `json:"mesh"`
	Verts    int    `json:"verts"`
	Interior int    `json:"interior"`
	// Elements is the metric-pass element count: triangles (dim 2) or
	// tetrahedra (dim 3).
	Elements int    `json:"elements"`
	Workers  int    `json:"workers"`
	Schedule string `json:"schedule"`
	// Path is set on the partition section's cells: "single" or
	// "partitioned".
	Path       string `json:"path,omitempty"`
	CheckEvery int    `json:"check_every"`
	Iterations int    `json:"iterations"`
	Reps       int    `json:"reps"`
	// NsPerOp is the best (minimum) wall-clock of one converge loop.
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	MeanNsPerOp float64 `json:"mean_ns_per_op"`
	// QualityTrajectory is the measured global quality after each measured
	// iteration (the Result.QualityHistory of one op); bit-identical across
	// every cell of the same dimension and check_every by construction.
	QualityTrajectory []float64 `json:"quality_trajectory"`
}

// setupResult is one cold-start phase timing: the work a smoothing service
// does once per mesh before any sweep can run. build is the full mesh
// synthesis, csr is the adjacency/incidence CSR construction alone (rebuild
// from the already-synthesized vertex and element arrays — the part the
// parallel setup passes accelerate), key_sort is the Hilbert key computation
// plus the curve-order index sort, and greedy_walk is the quality-greedy
// traversal that seeds the RDR ordering and the smoother's visit sequence.
type setupResult struct {
	Name    string `json:"name"`
	Dim     int    `json:"dim"`
	Phase   string `json:"phase"`
	Verts   int    `json:"verts"`
	Reps    int    `json:"reps"`
	NsPerOp int64  `json:"ns_per_op"` // best (minimum) rep
}

// partitionLayoutResult describes one dimension's decomposition in the
// partition section: the layout statistics (partition sizes, ghost
// fraction, exchange volumes) plus the one-time decomposition cost, the
// domain-decomposition analogue of the setup section's cold-start phases.
type partitionLayoutResult struct {
	Name string `json:"name"`
	Dim  int    `json:"dim"`
	Mesh string `json:"mesh"`
	// DecomposeNs is the best (minimum) wall-clock of partitioning the mesh
	// and building every partition's local mesh and exchange lists.
	DecomposeNs int64           `json:"decompose_ns"`
	Stats       partition.Stats `json:"stats"`
}

// partitionSection is the -partitions report section: the decomposition
// config, per-dimension layout statistics, and the converge-loop timing
// cells (paths "single" and "partitioned", at workers = NumCPU) appended to
// the main results.
type partitionSection struct {
	Partitions  int                     `json:"partitions"`
	Partitioner string                  `json:"partitioner"`
	Layouts     []partitionLayoutResult `json:"layouts"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Generated  time.Time     `json:"generated"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Setup      []setupResult `json:"setup"`
	// Partition is present when the benchmark ran with -partitions > 1.
	Partition *partitionSection `json:"partition,omitempty"`
	Results   []benchResult     `json:"results"`
}

// pathTiming accumulates one op's reps.
type pathTiming struct {
	reps         int
	best         int64
	total        time.Duration
	allocs, size uint64
}

func (p *pathTiming) add(d time.Duration, allocs, size uint64) {
	p.reps++
	p.total += d
	if p.best == 0 || d.Nanoseconds() < p.best {
		p.best = d.Nanoseconds()
	}
	p.allocs += allocs
	p.size += size
}

func (p *pathTiming) fill(r *benchResult) {
	r.Reps = p.reps
	r.NsPerOp = p.best
	r.MeanNsPerOp = float64(p.total.Nanoseconds()) / float64(p.reps)
	r.AllocsPerOp = p.allocs / uint64(p.reps)
	r.BytesPerOp = p.size / uint64(p.reps)
}

// setupReps is how many times each cold-start phase runs; the best rep is
// reported (the phases are deterministic, so the minimum is the
// least-noise estimate).
const setupReps = 3

func timeSetup(fn func() error) (int64, error) {
	best := int64(0)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0).Nanoseconds(); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// benchSetup times the cold-start pipeline on both benchmark meshes: full
// mesh synthesis (build), the CSR adjacency/incidence construction alone
// (csr — New on the already-synthesized arrays, the part the parallel setup
// passes accelerate), Hilbert key computation plus the curve-order sort
// (key_sort), and the quality-greedy traversal (greedy_walk).
func benchSetup(rep *benchReport, m2 *mesh.Mesh, m3 *mesh.TetMesh, verts2, cells3 int) error {
	add := func(dim int, phase string, verts int, fn func() error) error {
		ns, err := timeSetup(fn)
		if err != nil {
			return fmt.Errorf("setup %s (dim %d): %w", phase, dim, err)
		}
		s := setupResult{
			Name: fmt.Sprintf("Setup/dim=%d/phase=%s", dim, phase),
			Dim:  dim, Phase: phase, Verts: verts, Reps: setupReps, NsPerOp: ns,
		}
		rep.Setup = append(rep.Setup, s)
		fmt.Fprintf(os.Stderr, "%-44s %12d ns/op\n", s.Name, s.NsPerOp)
		return nil
	}

	hilbert := order.Hilbert{}
	vq2 := quality.VertexQualities(m2, quality.EdgeRatio{})
	phases2 := []struct {
		phase string
		fn    func() error
	}{
		{"build", func() error { _, err := mesh.Generate("carabiner", verts2); return err }},
		{"csr", func() error { _, err := mesh.New(m2.Coords, m2.Tris); return err }},
		{"key_sort", func() error { _, err := hilbert.Compute(m2, nil); return err }},
		{"greedy_walk", func() error { _, err := order.GreedyWalk(m2, vq2, false); return err }},
	}
	for _, p := range phases2 {
		if err := add(2, p.phase, m2.NumVerts(), p.fn); err != nil {
			return err
		}
	}

	vq3 := quality.TetVertexQualities(m3, quality.MeanRatio3{})
	phases3 := []struct {
		phase string
		fn    func() error
	}{
		{"build", func() error { _, err := mesh.GenerateTetCube(cells3, cells3, cells3, 0.3); return err }},
		{"csr", func() error { _, err := mesh.NewTet(m3.Coords, m3.Tets); return err }},
		{"key_sort", func() error { _, err := hilbert.Compute(m3, nil); return err }},
		{"greedy_walk", func() error { _, err := order.GreedyWalk(m3, vq3, false); return err }},
	}
	for _, p := range phases3 {
		if err := add(3, p.phase, m3.NumVerts(), p.fn); err != nil {
			return err
		}
	}
	return nil
}

// timeOp times one op, including its allocation deltas.
func timeOp(op func() error) (time.Duration, uint64, uint64, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return d, ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc, err
}

// benchOps times the given ops in interleaved reps — one rep of each op per
// round — and returns one timing per op. It runs at least two rounds and
// stops after five or once the rounds have taken four seconds.
func benchOps(ops ...func() error) ([]pathTiming, error) {
	const (
		minTime = 4 * time.Second
		maxReps = 5
	)
	timings := make([]pathTiming, len(ops))
	var total time.Duration
	for rep := 0; rep < maxReps && (rep < 2 || total < minTime); rep++ {
		for i, op := range ops {
			d, allocs, size, err := timeOp(op)
			if err != nil {
				return nil, err
			}
			timings[i].add(d, allocs, size)
			total += d
		}
	}
	return timings, nil
}

// benchWorkers is the worker axis of the converge cells: serial, and every
// CPU of the host.
func benchWorkers() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// runBenchJSON runs the converge benchmark and writes the report to path.
func runBenchJSON(path, schedule string, verts2, cells3, checkEvery, partitions int, partitioner string) error {
	m2, err := mesh.Generate("carabiner", verts2)
	if err != nil {
		return fmt.Errorf("generating 2D bench mesh: %w", err)
	}
	m3, err := mesh.GenerateTetCube(cells3, cells3, cells3, 0.3)
	if err != nil {
		return fmt.Errorf("generating 3D bench mesh: %w", err)
	}
	if schedule == "" {
		schedule = "static"
	}

	rep := benchReport{
		Generated:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if err := benchSetup(&rep, m2, m3, verts2, cells3); err != nil {
		return err
	}
	ctx := context.Background()

	for _, workers := range benchWorkers() {
		opt := smooth.Options{
			MaxIters: benchIters, Tol: -1, Traversal: smooth.StorageOrder,
			Workers: workers, Schedule: schedule, CheckEvery: checkEvery,
		}

		// 2D cell: warm up on the timed mesh and engine, then time reps.
		eng, m := smooth.NewSmoother(), m2.Clone()
		warm, err := eng.Run(ctx, m, opt)
		if err != nil {
			return err
		}
		t, err := benchOps(func() error { _, err := eng.Run(ctx, m, opt); return err })
		if err != nil {
			return err
		}
		base := benchResult{
			Dim: 2, Mesh: "carabiner", Verts: m2.NumVerts(), Interior: len(m2.InteriorVerts),
			Elements: m2.NumTris(), Workers: workers, Schedule: schedule,
			CheckEvery: checkEvery, Iterations: warm.Iterations,
			QualityTrajectory: warm.QualityHistory,
		}
		rep.Results = append(rep.Results, cell(base, "", t[0]))

		// 3D cell.
		eng3, mt := smooth.NewSmoother(), m3.Clone()
		warm3, err := eng3.RunTet(ctx, mt, opt)
		if err != nil {
			return err
		}
		t3, err := benchOps(func() error { _, err := eng3.RunTet(ctx, mt, opt); return err })
		if err != nil {
			return err
		}
		base3 := benchResult{
			Dim: 3, Mesh: "cube", Verts: m3.NumVerts(), Interior: len(m3.InteriorVerts),
			Elements: m3.NumTets(), Workers: workers, Schedule: schedule,
			CheckEvery: checkEvery, Iterations: warm3.Iterations,
			QualityTrajectory: warm3.QualityHistory,
		}
		rep.Results = append(rep.Results, cell(base3, "", t3[0]))
		report(os.Stderr, rep.Results[len(rep.Results)-2:])
	}

	if partitions > 1 {
		if err := benchPartitions(ctx, &rep, m2, m3, partitions, partitioner, schedule, checkEvery); err != nil {
			return err
		}
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// benchPartitions runs the -partitions section: decomposition cost and
// layout statistics for both benchmark meshes, plus interleaved
// converge-loop timings of the single-engine run against the partitioned
// multi-engine run (paths "single" and "partitioned"; Jacobi updates make
// their results bit-identical, so the cells measure pure execution-layout
// cost — halo exchange and barrier overhead against per-partition
// locality).
func benchPartitions(ctx context.Context, rep *benchReport, m2 *mesh.Mesh, m3 *mesh.TetMesh, k int, pname, schedule string, checkEvery int) error {
	sec := &partitionSection{Partitions: k, Partitioner: pname}
	rep.Partition = sec

	addLayout := func(dim int, meshName string, in partition.Input, decompose func() error) error {
		ns, err := timeSetup(decompose)
		if err != nil {
			return fmt.Errorf("partitioning (dim %d): %w", dim, err)
		}
		l, err := partition.New(in, k, pname)
		if err != nil {
			return err
		}
		lr := partitionLayoutResult{
			Name: fmt.Sprintf("Partition/dim=%d/k=%d/%s", dim, k, pname),
			Dim:  dim, Mesh: meshName, DecomposeNs: ns, Stats: l.Stats(),
		}
		sec.Layouts = append(sec.Layouts, lr)
		fmt.Fprintf(os.Stderr, "%-44s %12d ns/op  ghosts %.4f\n", lr.Name, lr.DecomposeNs, lr.Stats.GhostFraction)
		return nil
	}
	if err := addLayout(2, "carabiner", partition.FromMesh(m2), func() error {
		l, err := partition.New(partition.FromMesh(m2), k, pname)
		if err != nil {
			return err
		}
		for p := range l.Parts {
			if _, _, err := partition.BuildLocal(m2, &l.Parts[p]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := addLayout(3, "cube", partition.FromTetMesh(m3), func() error {
		l, err := partition.New(partition.FromTetMesh(m3), k, pname)
		if err != nil {
			return err
		}
		for p := range l.Parts {
			if _, _, err := partition.BuildLocalTet(m3, &l.Parts[p]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Match the main loop's workers=NumCPU cells so single/partitioned
	// timings are directly comparable to them.
	workers := runtime.NumCPU()
	opt := smooth.Options{
		MaxIters: benchIters, Tol: -1, Traversal: smooth.StorageOrder,
		Workers: workers, Schedule: schedule, CheckEvery: checkEvery,
	}
	optP := opt
	optP.Partitions, optP.Partitioner = k, pname

	// 2D cell: single engine vs partitioned driver, each warmed up on the
	// mesh its reps time, so the partitioned reps reuse the decomposition
	// the warm-up cached instead of rebuilding it in the first rep.
	engS, engP := smooth.NewSmoother(), smooth.NewPartitionedSmoother()
	meshS, meshP := m2.Clone(), m2.Clone()
	warm, err := engS.Run(ctx, meshS, opt)
	if err != nil {
		return err
	}
	if _, err := engP.Run(ctx, meshP, optP); err != nil {
		return err
	}
	t, err := benchOps(
		func() error { _, err := engS.Run(ctx, meshS, opt); return err },
		func() error { _, err := engP.Run(ctx, meshP, optP); return err },
	)
	if err != nil {
		return err
	}
	base := benchResult{
		Dim: 2, Mesh: "carabiner", Verts: m2.NumVerts(), Interior: len(m2.InteriorVerts),
		Elements: m2.NumTris(), Workers: workers, Schedule: schedule,
		CheckEvery: checkEvery, Iterations: warm.Iterations,
		QualityTrajectory: warm.QualityHistory,
	}
	rep.Results = append(rep.Results, cell(base, "single", t[0]), cell(base, "partitioned", t[1]))
	report(os.Stderr, rep.Results[len(rep.Results)-2:])

	// 3D cell.
	engS3, engP3 := smooth.NewSmoother(), smooth.NewPartitionedSmoother()
	meshS3, meshP3 := m3.Clone(), m3.Clone()
	warm3, err := engS3.RunTet(ctx, meshS3, opt)
	if err != nil {
		return err
	}
	if _, err := engP3.RunTet(ctx, meshP3, optP); err != nil {
		return err
	}
	t3, err := benchOps(
		func() error { _, err := engS3.RunTet(ctx, meshS3, opt); return err },
		func() error { _, err := engP3.RunTet(ctx, meshP3, optP); return err },
	)
	if err != nil {
		return err
	}
	base3 := benchResult{
		Dim: 3, Mesh: "cube", Verts: m3.NumVerts(), Interior: len(m3.InteriorVerts),
		Elements: m3.NumTets(), Workers: workers, Schedule: schedule,
		CheckEvery: checkEvery, Iterations: warm3.Iterations,
		QualityTrajectory: warm3.QualityHistory,
	}
	rep.Results = append(rep.Results, cell(base3, "single", t3[0]), cell(base3, "partitioned", t3[1]))
	report(os.Stderr, rep.Results[len(rep.Results)-2:])
	return nil
}

// cell stamps one op's timings onto a copy of the cell's shared fields; a
// non-empty path names the partition section's single or partitioned op.
func cell(base benchResult, path string, t pathTiming) benchResult {
	base.Path = path
	base.Name = fmt.Sprintf("RunConverged/dim=%d/workers=%d", base.Dim, base.Workers)
	if path != "" {
		base.Name = fmt.Sprintf("RunConverged/dim=%d/path=%s/workers=%d", base.Dim, path, base.Workers)
	}
	t.fill(&base)
	return base
}

func report(w *os.File, cells []benchResult) {
	for _, r := range cells {
		fmt.Fprintf(w, "%-44s %12d ns/op  %6d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
}
