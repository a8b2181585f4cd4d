package smooth

import (
	"context"
	"strings"
	"testing"

	"lams/internal/quality"
	"lams/internal/trace"
)

// TestOptionsValidationMatchesAcrossDims drives the same invalid Options
// through the 2D and 3D entry points and asserts each rejection is
// byte-identical across dimensions and layouts — the observable contract of
// the one shared withDefaults/validate path. Dimension-specific inputs (the
// in-place kernels) are spelled per dim but must still produce the same
// message.
func TestOptionsValidationMatchesAcrossDims(t *testing.T) {
	m2 := genMesh(t, 300)
	m3 := genTetMesh(t, 3)
	ctx := context.Background()

	cases := []struct {
		name       string
		opt2, opt3 Options
		want       string
	}{
		{
			name: "negative-workers",
			opt2: Options{Workers: -2}, opt3: Options{Workers: -2},
			want: "smooth: workers must be >= 1, got -2",
		},
		{
			name: "negative-check-every",
			opt2: Options{CheckEvery: -1}, opt3: Options{CheckEvery: -1},
			want: "smooth: check-every must be >= 1, got -1",
		},
		{
			name: "unknown-schedule",
			opt2: Options{Schedule: "zigzag"}, opt3: Options{Schedule: "zigzag"},
			want: "", // no pinned text; equality and the name are asserted below
		},
		{
			name: "undersized-trace-buffer",
			opt2: Options{Workers: 4, Trace: trace.NewBuffer(2)},
			opt3: Options{Workers: 4, Trace: trace.NewBuffer(2)},
			want: "smooth: trace buffer has 2 cores, need 4",
		},
		{
			name: "partitioned-trace",
			opt2: Options{Partitions: 2, Trace: trace.NewBuffer(1)},
			opt3: Options{Partitions: 2, Trace: trace.NewBuffer(1)},
			want: "smooth: partitioned runs do not support tracing",
		},
		{
			name: "partitioned-negative-partitions",
			opt2: Options{Partitions: -1},
			opt3: Options{Partitions: -1},
			want: "smooth: partitions must be >= 1, got -1",
		},
		{
			name: "partitioned-in-place-kernel",
			opt2: Options{Partitions: 2, Kernel: SmartKernel{}},
			opt3: Options{Partitions: 2, TetKernel: SmartKernel3{}},
			want: `smooth: partitioned runs require Jacobi updates; kernel "smart" updates in place`,
		},
		{
			name: "partitioned-gauss-seidel",
			opt2: Options{Partitions: 2, GaussSeidel: true},
			opt3: Options{Partitions: 2, GaussSeidel: true},
			want: `smooth: partitioned runs require Jacobi updates; kernel "plain" updates in place`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err2 := NewSmoother().Run(ctx, m2.Clone(), tc.opt2)
			_, err3 := NewSmoother().RunTet(ctx, m3.Clone(), tc.opt3)
			if err2 == nil || err3 == nil {
				t.Fatalf("invalid options accepted: 2D err = %v, 3D err = %v", err2, err3)
			}
			if err2.Error() != err3.Error() {
				t.Errorf("error text differs across dims:\n  2D: %v\n  3D: %v", err2, err3)
			}
			if tc.want != "" && err2.Error() != tc.want {
				t.Errorf("error = %q, want %q", err2, tc.want)
			}
			if tc.name == "unknown-schedule" && !strings.Contains(err2.Error(), "zigzag") {
				t.Errorf("unknown-schedule error does not name the schedule: %v", err2)
			}
		})
	}
}

// TestOptionsCrossDimensionRejection pins the guidance each dimension gives
// when handed the other dimension's metric or kernel.
func TestOptionsCrossDimensionRejection(t *testing.T) {
	m2 := genMesh(t, 300)
	m3 := genTetMesh(t, 3)
	ctx := context.Background()

	const want2 = "smooth: options select tetrahedral rules (TetMetric/TetKernel) but the run is 2D; use RunTet"
	for name, opt := range map[string]Options{
		"tet-metric": {TetMetric: quality.MeanRatio3{}},
		"tet-kernel": {TetKernel: PlainKernel3{}},
	} {
		if _, err := NewSmoother().Run(ctx, m2.Clone(), opt); err == nil || err.Error() != want2 {
			t.Errorf("2D run with %s: err = %v, want %q", name, err, want2)
		}
	}

	const want3 = "smooth: options select triangle rules (Metric/Kernel) but the run is tetrahedral; use Run"
	for name, opt := range map[string]Options{
		"tri-metric": {Metric: quality.EdgeRatio{}},
		"tri-kernel": {Kernel: PlainKernel{}},
	} {
		if _, err := NewSmoother().RunTet(ctx, m3.Clone(), opt); err == nil || err.Error() != want3 {
			t.Errorf("3D run with %s: err = %v, want %q", name, err, want3)
		}
	}
}
