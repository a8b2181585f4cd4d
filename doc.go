// Package lams is a from-scratch Go reproduction of "Locality-Aware
// Laplacian Mesh Smoothing" (Aupy, Park, Raghavan; ICPP 2016,
// arXiv:1606.00803).
//
// The public API lives in pkg/lams: the build → order → smooth → analyze
// pipeline with functional options and context cancellation, over both 2D
// triangular meshes (the paper's nine Table 1 domains) and 3D tetrahedral
// meshes (the structured cube generator, TetGen-format I/O). The
// implementation lives under internal/: the RDR reordering and its
// baselines behind a self-registering registry (internal/order) — the
// orderings traverse a dimension-agnostic adjacency abstraction
// (order.Graph/order.Spatial), so the same registry entries reorder
// triangles and tetrahedra — the dimension-generic smoothing core
// (internal/smooth: one engine, generic over a dim2/dim3 abstraction,
// serves both mesh kinds through Smoother.Run and Smoother.RunTet — one
// convergence loop, one kernel registry resolving both dimensions' kernels
// from the same rows, one Jacobi chunk body and one in-place sweep per
// dimension over the mesh's own coordinate array, which call the 2D
// default kernel and the default metrics through their concrete types and
// everything else through the interfaces, with a CheckEvery measurement
// cadence), the
// quality metrics whose global
// measurement runs one generic two-stage element pass chunk-parallel
// through a fixed-block ordered reduction — bit-identical to the serial
// pass at every worker count and schedule (internal/quality,
// parallel.OrderedReducer) — the chunk schedulers that distribute each
// sweep across workers — static (the paper's OpenMP configuration, the
// default), guided, and lock-free work-stealing, all bit-identical in
// results and selectable per run in
// either dimension (internal/parallel), the mesh data structures and
// generator substrates (internal/mesh, internal/delaunay,
// internal/domains, internal/geom — including the Orient3D predicate and
// 3D Hilbert/Morton keys; CSR adjacency construction and curve-key
// computation run chunk-parallel through the same scheduler registry, so
// cold-start setup scales with the sweeps), and the locality-analysis
// machinery
// (internal/trace, internal/reuse, internal/cache, internal/perfmodel).
// internal/experiments regenerates every table and figure of the paper's
// evaluation.
//
// pkg/lamsd turns the library into a long-running HTTP service (served by
// cmd/lamsd): uploaded meshes and warm smoothing engines stay resident
// between requests, so the paper's reorder-once / smooth-many amortization
// argument holds across a request stream, and the pooled hot path performs
// no per-request engine allocation.
//
// See README.md for a package tour, a quickstart through the public API,
// and a curl walkthrough of the service. The benchmarks in bench_test.go
// regenerate each paper artifact; the cmd/lamsbench binary prints them as
// reports.
package lams
