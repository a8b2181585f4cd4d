// Command perfbench is the lams benchmark. It generates one workload's
// inputs from a seed, drives the library or the lamsd service through their
// public entry points for a fixed time, checks every output, and prints one
// JSON result line:
//
//	perfbench --workload tri-rdr --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics from a separate
// traced pass, and the spans of that pass are written to
// .bench_build/spans-<workload>-<seed>.json. A human-readable report,
// including the environment, goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// nproc caps every worker and partition count: more workers than CPUs
// measure the scheduler, not the program.
var nproc = runtime.NumCPU()

// Metric is one named figure of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line the benchmark prints, plus what it reports on
// standard error.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	// workingSet is the computed working set of the workload's main mesh.
	workingSet float64
}

// Set records a metric.
func (r *Result) Set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]Metric)
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// fail counts one failed operation and says why on standard error.
func (r *Result) fail(err error) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
}

// Report prints one line of the human-readable report.
func (r *Result) Report(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
}

// workload is one benchmark workload: run measures its end-to-end metrics
// with tracing off; layers runs its traced pass, sets its per-layer
// metrics and writes the pass's spans to spansPath.
type workload struct {
	run    func(ctx context.Context, seed int64, dur time.Duration, out *Result) error
	layers func(ctx context.Context, seed int64, spansPath string, out *Result) error
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the timed part measures")
	trace := flag.Int("trace", 0, "1: run the traced pass and report per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	printEnv()

	ctx := context.Background()
	out := &Result{}
	var err error
	if *trace == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, traced pass\n", *name, *seed)
		spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		err = w.layers(ctx, *seed, spans, out)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %d s\n", *name, *seed, *seconds)
		err = w.run(ctx, *seed, time.Duration(*seconds)*time.Second, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if out.workingSet > 0 {
		fmt.Fprintf(os.Stderr, "  working set %.1f MB against L2 %s per core, L3 %s\n",
			out.workingSet/1e6, cacheSize(2), cacheSize(3))
	}
	for k, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			os.Exit(1)
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	printMetrics(out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(out *Result) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: attempted %d, failed %d\n", out.Attempted, out.Failed)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// printEnv records the machine the result was measured on, on standard
// output (one JSON line ahead of the result) and in the report.
func printEnv() {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      nproc,
		"cpu":        cpuModel(),
		"l2":         cacheSize(2),
		"l3":         cacheSize(3),
	}
	b, _ := json.Marshal(map[string]any{"env": env}) // a map of strings and ints always encodes
	fmt.Println(string(b))
	fmt.Fprintf(os.Stderr, "perfbench: %s, GOMAXPROCS %d, nproc %d, %s, L2 %s, L3 %s\n",
		env["go"], env["gomaxprocs"], nproc, env["cpu"], env["l2"], env["l3"])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of cpu0's unified or data cache at level.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != fmt.Sprint(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if size, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}
