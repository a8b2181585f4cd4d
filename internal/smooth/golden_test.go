package smooth

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lams/internal/mesh"
	"lams/internal/quality"
	"lams/internal/trace"
)

// The golden-hash regression pins the engine's numerical output — committed
// coordinates, quality history, access counts, iteration count — for a fixed
// matrix of dim × kernel × schedule × workers × partitions configurations,
// plus axis cells for non-default metrics, storage-order traversal,
// Gauss-Seidel updates, a measurement cadence, and traced runs (whose
// per-worker access streams are hashed too). The seed-matrix hashes in
// testdata/golden_hashes.json were captured from the pre-unification twin
// engines (Smoother/Smoother3 before the dimension-generic refactor), the
// axis-cell hashes from the engine that still kept structure-of-arrays
// coordinate mirrors beside Mesh.Coords; the engine must reproduce every one
// of them bitwise. Regenerate with GOLDEN_UPDATE=1 only when an intentional
// numerical change is being made, and say so in the commit.

const (
	goldenIters  = 4
	goldenVerts2 = 1200 // carabiner target vertex count
	goldenCells3 = 5    // tet cube cells per axis
	goldenMaxD   = 0.05 // constrained kernel displacement clamp
)

var goldenFile = filepath.Join("testdata", "golden_hashes.json")

// The matrix smooths clones of one generated mesh per dimension; generating
// it once keeps the matrix (and its resume axis, which runs every cell
// several times) cheap under -race.
var (
	goldenOnce2, goldenOnce3 sync.Once
	goldenBase2              *mesh.Mesh
	goldenBase3              *mesh.TetMesh
)

func goldenMesh2(t *testing.T) *mesh.Mesh {
	t.Helper()
	goldenOnce2.Do(func() { goldenBase2 = genMesh(t, goldenVerts2) })
	if goldenBase2 == nil {
		t.Fatal("generating the golden 2D mesh failed")
	}
	return goldenBase2
}

func goldenMesh3(t *testing.T) *mesh.TetMesh {
	t.Helper()
	goldenOnce3.Do(func() { goldenBase3 = genTetMesh(t, goldenCells3) })
	if goldenBase3 == nil {
		t.Fatal("generating the golden 3D mesh failed")
	}
	return goldenBase3
}

type goldenCase struct {
	Dim        int
	Kernel     string
	Schedule   string
	Workers    int
	Partitions int

	// The axes beyond the seed matrix. Their zero values are the seed
	// cells' settings and leave the cell name unchanged.

	// Metric names a non-default metric from goldenMetrics2/goldenMetrics3:
	// the run's measurement metric and, for the smart kernel, its accept
	// metric too.
	Metric      string
	Traversal   Traversal
	GaussSeidel bool
	CheckEvery  int
	// Traced records the run's access trace and folds every worker's
	// stream, iteration by iteration, into the hash.
	Traced bool
}

func (c goldenCase) name() string {
	s := fmt.Sprintf("dim=%d/kernel=%s/schedule=%s/workers=%d/partitions=%d",
		c.Dim, c.Kernel, c.Schedule, c.Workers, c.Partitions)
	if c.Metric != "" {
		s += "/metric=" + c.Metric
	}
	if c.Traversal != QualityGreedy {
		s += "/traversal=" + c.Traversal.String()
	}
	if c.GaussSeidel {
		s += "/gauss-seidel"
	}
	if c.CheckEvery > 1 {
		s += fmt.Sprintf("/checkevery=%d", c.CheckEvery)
	}
	if c.Traced {
		s += "/traced"
	}
	return s
}

var (
	goldenKernels  = []string{"plain", "smart", "weighted", "constrained"}
	goldenMetrics2 = map[string]quality.Metric{"min-angle": quality.MinAngle{}, "aspect-ratio": quality.AspectRatio{}}
	goldenMetrics3 = map[string]quality.TetMetric{"edge-ratio3": quality.EdgeRatio3{}}
)

// goldenMatrix enumerates the seed matrix followed by the axis cells. The
// smart kernel updates in place, which partitioned runs reject, so its
// partitions>1 cells are omitted rather than recorded as errors.
func goldenMatrix() []goldenCase {
	var cases []goldenCase
	for _, dim := range []int{2, 3} {
		for _, kernel := range goldenKernels {
			for _, schedule := range []string{"static", "guided", "stealing"} {
				for _, workers := range []int{1, 4} {
					for _, partitions := range []int{1, 3} {
						if kernel == "smart" && partitions > 1 {
							continue
						}
						cases = append(cases, goldenCase{Dim: dim, Kernel: kernel, Schedule: schedule, Workers: workers, Partitions: partitions})
					}
				}
			}
		}
	}
	return append(cases, goldenAxisCells()...)
}

// goldenAxisCells varies one setting at a time away from the seed matrix's
// defaults. Traced cells use the static schedule only: it is the one
// schedule whose worker-to-chunk assignment, and so each worker's access
// stream, is deterministic.
func goldenAxisCells() []goldenCase {
	var cases []goldenCase
	for _, dim := range []int{2, 3} {
		metrics := []string{"min-angle", "aspect-ratio"}
		if dim == 3 {
			metrics = []string{"edge-ratio3"}
		}
		for _, met := range metrics {
			for _, workers := range []int{1, 4} {
				cases = append(cases,
					goldenCase{Dim: dim, Kernel: "plain", Schedule: "static", Workers: workers, Partitions: 1, Metric: met},
					goldenCase{Dim: dim, Kernel: "plain", Schedule: "stealing", Workers: workers, Partitions: 3, Metric: met},
					goldenCase{Dim: dim, Kernel: "smart", Schedule: "static", Workers: workers, Partitions: 1, Metric: met})
			}
		}
		for _, kernel := range goldenKernels {
			for _, workers := range []int{1, 4} {
				base := goldenCase{Dim: dim, Kernel: kernel, Schedule: "static", Workers: workers, Partitions: 1}
				storage, every, traced := base, base, base
				storage.Traversal = StorageOrder
				every.CheckEvery = 3
				traced.Traced = true
				cases = append(cases, storage, every, traced)
				if kernel != "smart" {
					gs := base
					gs.GaussSeidel = true
					cases = append(cases, gs)
				}
			}
		}
		cases = append(cases,
			goldenCase{Dim: dim, Kernel: "plain", Schedule: "guided", Workers: 4, Partitions: 3, CheckEvery: 3},
			goldenCase{Dim: dim, Kernel: "plain", Schedule: "static", Workers: 1, Partitions: 1, GaussSeidel: true, Traced: true})
	}
	return cases
}

func goldenHashF64(h hash.Hash64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func goldenHashI64(h hash.Hash64, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// goldenKernel2 resolves a registry kernel whose smart accept metric is met
// (nil for the default).
func goldenKernel2(t *testing.T, name string, met quality.Metric) Kernel {
	t.Helper()
	k, err := KernelByName(name, KernelConfig{Metric: met, MaxDisplacement: goldenMaxD})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func goldenKernel3(t *testing.T, name string, met quality.TetMetric) TetKernel {
	t.Helper()
	k, err := TetKernelByName(name, KernelConfig{TetMetric: met, MaxDisplacement: goldenMaxD})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// goldenHashTrace folds every worker's access stream into h, iteration by
// iteration, so both the streams and their iteration boundaries are pinned.
func goldenHashTrace(t *testing.T, h hash.Hash64, tb *trace.Buffer) {
	t.Helper()
	goldenHashI64(h, int64(tb.NumCores()))
	goldenHashI64(h, int64(tb.Iterations()))
	for c := 0; c < tb.NumCores(); c++ {
		for it := 0; it < tb.Iterations(); it++ {
			s, err := tb.IterSlice(c, it)
			if err != nil {
				t.Fatal(err)
			}
			goldenHashI64(h, int64(len(s)))
			for _, v := range s {
				goldenHashI64(h, int64(v))
			}
		}
	}
}

// goldenRun executes one matrix cell from a fresh mesh and folds the
// complete numerical outcome into one 64-bit FNV-1a hash.
func goldenRun(t *testing.T, c goldenCase) uint64 {
	t.Helper()
	return goldenRunOpts(t, c, nil)
}

// goldenRunOpts is goldenRun with an options mutator, so the resume axis
// can thread Checkpoint/Resume through the very same cell executions.
func goldenRunOpts(t *testing.T, c goldenCase, mod func(*Options)) uint64 {
	t.Helper()
	h := fnv.New64a()
	var res Result
	var tb *trace.Buffer
	if c.Traced {
		tb = trace.NewBuffer(c.Workers)
	}
	if c.Dim == 2 {
		m := goldenMesh2(t).Clone()
		met := goldenMetrics2[c.Metric]
		opt := Options{
			MaxIters: goldenIters, Tol: -1,
			Workers: c.Workers, Schedule: c.Schedule,
			Kernel: goldenKernel2(t, c.Kernel, met), Metric: met, Partitions: c.Partitions,
			Traversal: c.Traversal, GaussSeidel: c.GaussSeidel, CheckEvery: c.CheckEvery, Trace: tb,
		}
		if mod != nil {
			mod(&opt)
		}
		var err error
		res, err = Run(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Coords {
			goldenHashF64(h, p.X)
			goldenHashF64(h, p.Y)
		}
	} else {
		m := goldenMesh3(t).Clone()
		met := goldenMetrics3[c.Metric]
		opt := Options{
			MaxIters: goldenIters, Tol: -1,
			Workers: c.Workers, Schedule: c.Schedule,
			TetKernel: goldenKernel3(t, c.Kernel, met), TetMetric: met, Partitions: c.Partitions,
			Traversal: c.Traversal, GaussSeidel: c.GaussSeidel, CheckEvery: c.CheckEvery, Trace: tb,
		}
		if mod != nil {
			mod(&opt)
		}
		var err error
		res, err = RunTet(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Coords {
			goldenHashF64(h, p.X)
			goldenHashF64(h, p.Y)
			goldenHashF64(h, p.Z)
		}
	}
	for _, q := range res.QualityHistory {
		goldenHashF64(h, q)
	}
	goldenHashF64(h, res.InitialQuality)
	goldenHashF64(h, res.FinalQuality)
	goldenHashI64(h, int64(res.Iterations))
	goldenHashI64(h, res.Accesses)
	if tb != nil {
		goldenHashTrace(t, h, tb)
	}
	return h.Sum64()
}

type goldenRecord struct {
	Iters  int               `json:"iters"`
	Mesh2  string            `json:"mesh2"`
	Mesh3  string            `json:"mesh3"`
	Hashes map[string]string `json:"hashes"`
}

func TestGoldenHashes(t *testing.T) {
	cases := goldenMatrix()

	if os.Getenv("GOLDEN_UPDATE") != "" {
		rec := goldenRecord{
			Iters:  goldenIters,
			Mesh2:  fmt.Sprintf("carabiner/%d", goldenVerts2),
			Mesh3:  fmt.Sprintf("cube/%d", goldenCells3),
			Hashes: make(map[string]string, len(cases)),
		}
		for _, c := range cases {
			rec.Hashes[c.name()] = fmt.Sprintf("%016x", goldenRun(t, c))
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(rec.Hashes), goldenFile)
		return
	}

	buf, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading golden hashes (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	var rec goldenRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Iters != goldenIters {
		t.Fatalf("golden file captured %d iterations, test runs %d", rec.Iters, goldenIters)
	}
	if len(rec.Hashes) != len(cases) {
		t.Errorf("golden file has %d hashes, matrix has %d cases", len(rec.Hashes), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			want, ok := rec.Hashes[c.name()]
			if !ok {
				t.Fatalf("no golden hash for %s", c.name())
			}
			if got := fmt.Sprintf("%016x", goldenRun(t, c)); got != want {
				t.Errorf("hash = %s, want %s (numerical output drifted from the pre-unification engines)", got, want)
			}
		})
	}
}

// TestGoldenResumeAxis is the resume axis of the golden matrix: every cell
// is run once capturing its checkpoints, then re-run resumed from each
// checkpoint, and every resumed run must land on the cell's committed
// golden hash — interrupt-and-resume is bitwise invisible at any
// checkpoint of any cell. No new hashes are recorded; the pre-resume
// hashes are the contract. Traced cells are skipped: a resumed run traces
// only the sweeps it executes, so its streams differ by design.
func TestGoldenResumeAxis(t *testing.T) {
	if os.Getenv("GOLDEN_UPDATE") != "" {
		t.Skip("golden update run")
	}
	buf, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading golden hashes (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	var rec goldenRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenMatrix() {
		c := c
		if c.Traced {
			continue
		}
		t.Run(c.name(), func(t *testing.T) {
			want, ok := rec.Hashes[c.name()]
			if !ok {
				t.Fatalf("no golden hash for %s", c.name())
			}
			var cps []Checkpoint
			got := fmt.Sprintf("%016x", goldenRunOpts(t, c, func(o *Options) {
				o.Checkpoint = func(cp Checkpoint) { cps = append(cps, cp) }
			}))
			if got != want {
				t.Fatalf("checkpointed run hash = %s, want %s (emitting checkpoints must not perturb the run)", got, want)
			}
			// Tol is disabled, so every measured sweep emits: every
			// CheckEvery-th one plus the final one.
			every := max(c.CheckEvery, 1)
			wantCps := (goldenIters + every - 1) / every
			if len(cps) != wantCps {
				t.Fatalf("captured %d checkpoints, want %d", len(cps), wantCps)
			}
			for _, cp := range cps {
				cp := cp
				if got := fmt.Sprintf("%016x", goldenRunOpts(t, c, func(o *Options) {
					o.Resume = &cp
				})); got != want {
					t.Errorf("resume from iteration %d: hash = %s, want %s", cp.Iteration, got, want)
				}
			}
		})
	}
}
