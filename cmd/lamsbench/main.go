// Command lamsbench regenerates the tables and figures of "Locality-Aware
// Laplacian Mesh Smoothing" (Aupy, Park, Raghavan; ICPP 2016). Each paper
// artifact has an experiment id; -exp all runs the full evaluation.
//
// Usage:
//
//	lamsbench [-exp id] [-verts n] [-full] [-meshes a,b,c] [-nowall] [-schedule static|guided|stealing] [-checkevery k]
//	lamsbench -json FILE [-schedule s] [-benchverts n] [-benchcells n] [-checkevery k] [-partitions k [-partitioner bfs|bisect]]
//
// Either mode takes -cpuprofile FILE and -memprofile FILE to write pprof
// CPU and heap profiles of the run.
//
// Experiment ids: table1, fig1, fig4, fig5, fig6, fig8, fig9, table2,
// table3, eq2, fig10, fig11, fig12, fig13, cost, all.
//
// With -json, lamsbench skips the experiments and runs the converge-loop
// benchmark instead (full sweep+measure loops across dimensions and worker
// counts 1 and NumCPU, plus cold-start setup-phase timings), writing
// machine-readable results to FILE; see BENCH_smooth.json at the repository
// root for the committed baseline. Adding -partitions k (k > 1) appends a
// domain-decomposition section: layout statistics and decomposition cost for
// both benchmark meshes, plus interleaved timings of the single-engine
// converge loop against the k-partition multi-engine run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lams/internal/experiments"
	"lams/internal/parallel"
	"lams/internal/partition"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (table1, fig1, fig4, fig5, fig6, fig7, fig8, fig9, table2, table3, eq2, fig10, fig11, fig12, fig13, cost, cpack, prefetch, mrc, variants, gs, all)")
		verts      = flag.Int("verts", 20000, "target vertices per mesh")
		full       = flag.Bool("full", false, "use the paper's full mesh sizes (~330k vertices; slow)")
		meshes     = flag.String("meshes", "", "comma-separated mesh subset (default: all nine)")
		nowall     = flag.Bool("nowall", false, "skip wall-clock measurements in fig8")
		schedule   = flag.String("schedule", "", "chunk schedule for the parallel traced runs: "+strings.Join(parallel.Schedules(), ", ")+" (default static)")
		checkevery = flag.Int("checkevery", 1, "measure global quality every k-th sweep of the convergence runs (default 1: every sweep)")
		jsonOut    = flag.String("json", "", "run the converge-loop benchmark instead of the experiments and write machine-readable results to FILE")
		benchVerts = flag.Int("benchverts", 262144, "target 2D mesh vertices for the -json benchmark (default: the 512x512-grid magnitude)")
		benchCells = flag.Int("benchcells", 40, "cells per axis of the 3D cube for the -json benchmark (default 40, i.e. 40^3)")
		partitions = flag.Int("partitions", 0, "with -json: also benchmark the k-partition multi-engine smoother against the single engine (0 skips the section)")
		partnr     = flag.String("partitioner", "", "decomposition strategy for -partitions: "+strings.Join(partition.Names(), ", ")+" (default bfs)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to FILE")
		memprofile = flag.String("memprofile", "", "write a heap profile to FILE at exit")
	)
	flag.Parse()

	if *full {
		*verts = 330000
	}
	if *schedule != "" {
		if _, err := parallel.SchedulerByName(*schedule); err != nil {
			fmt.Fprintln(os.Stderr, "lamsbench:", err)
			os.Exit(2)
		}
	}
	if *checkevery < 1 {
		fmt.Fprintf(os.Stderr, "lamsbench: -checkevery %d: want >= 1\n", *checkevery)
		os.Exit(2)
	}
	if *partitions < 0 || (*partitions != 0 && *partitions < 2) {
		fmt.Fprintf(os.Stderr, "lamsbench: -partitions %d: want >= 2 (or 0 to skip the section)\n", *partitions)
		os.Exit(2)
	}
	pname := *partnr
	if pname == "" {
		pname = partition.BFS
	}
	if _, err := partition.ByName(pname); err != nil {
		fmt.Fprintln(os.Stderr, "lamsbench:", err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lamsbench:", err)
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "lamsbench:", err)
		stopProfiles()
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := runBenchJSON(*jsonOut, *schedule, *benchVerts, *benchCells, *checkevery, *partitions, pname); err != nil {
			fail(err)
		}
		stopProfiles()
		return
	}
	cfg := experiments.ConfigForSize(*verts)
	if *meshes != "" {
		cfg.Meshes = strings.Split(*meshes, ",")
	}
	cfg.Schedule = *schedule
	cfg.CheckEvery = *checkevery
	s := experiments.NewSuite(cfg)

	if err := run(s, *exp, !*nowall); err != nil {
		fail(err)
	}
	stopProfiles()
}

// startProfiles starts a CPU profile and/or arranges a heap profile per the
// flag values ("" disables either). The returned func stops the CPU profile
// and writes the heap snapshot; it must run before every process exit so the
// profile files are complete even on error paths.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lamsbench: heap profile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lamsbench: heap profile:", err)
		}
	}, nil
}

func run(s *experiments.Suite, exp string, wall bool) error {
	type experiment struct {
		id string
		fn func() (fmt.Stringer, error)
	}
	wrap := func(f func() (fmt.Stringer, error)) func() (fmt.Stringer, error) { return f }
	var scaling *experiments.ScalingResult
	getScaling := func() (*experiments.ScalingResult, error) {
		if scaling != nil {
			return scaling, nil
		}
		var err error
		scaling, err = s.Scaling()
		return scaling, err
	}

	all := []experiment{
		{"table1", wrap(func() (fmt.Stringer, error) { return s.Table1() })},
		{"fig1", wrap(func() (fmt.Stringer, error) { return s.Fig1() })},
		{"fig4", wrap(func() (fmt.Stringer, error) { return s.Fig4() })},
		{"fig5", wrap(func() (fmt.Stringer, error) { return s.Fig5() })},
		{"fig6", wrap(func() (fmt.Stringer, error) { return s.Fig6() })},
		{"fig7", wrap(func() (fmt.Stringer, error) { return s.Fig7() })},
		{"fig8", wrap(func() (fmt.Stringer, error) { return s.Fig8(wall) })},
		{"fig9", wrap(func() (fmt.Stringer, error) { return s.Fig9() })},
		{"table2", wrap(func() (fmt.Stringer, error) { return s.Table2() })},
		{"table3", wrap(func() (fmt.Stringer, error) { return s.Table3() })},
		{"eq2", wrap(func() (fmt.Stringer, error) { return s.Eq2() })},
		{"fig10", wrap(func() (fmt.Stringer, error) {
			r, err := getScaling()
			if err != nil {
				return nil, err
			}
			return stringer(r.Fig10String()), nil
		})},
		{"fig11", wrap(func() (fmt.Stringer, error) { return s.Fig11() })},
		{"fig12", wrap(func() (fmt.Stringer, error) {
			r, err := getScaling()
			if err != nil {
				return nil, err
			}
			return stringer(r.Fig12String()), nil
		})},
		{"fig13", wrap(func() (fmt.Stringer, error) {
			r, err := getScaling()
			if err != nil {
				return nil, err
			}
			return stringer(r.Fig13String()), nil
		})},
		{"cost", wrap(func() (fmt.Stringer, error) { return s.Cost() })},
		{"cpack", wrap(func() (fmt.Stringer, error) { return s.CPack() })},
		{"prefetch", wrap(func() (fmt.Stringer, error) { return s.Prefetch() })},
		{"mrc", wrap(func() (fmt.Stringer, error) { return s.MRC() })},
		{"variants", wrap(func() (fmt.Stringer, error) { return s.Variants() })},
		{"gs", wrap(func() (fmt.Stringer, error) { return s.GaussSeidel() })},
		{"numa", wrap(func() (fmt.Stringer, error) { return s.NUMA() })},
	}

	selected := all
	if exp != "all" {
		selected = nil
		for _, e := range all {
			if e.id == exp {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			return fmt.Errorf("unknown experiment %q", exp)
		}
	}
	for _, e := range selected {
		start := time.Now()
		r, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", e.id, time.Since(start).Seconds(), r)
	}
	return nil
}

type stringer string

func (s stringer) String() string { return string(s) }
