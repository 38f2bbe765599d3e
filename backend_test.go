// backend_test.go covers the execution-backend seam: the SharedMem
// engine must be a drop-in replacement for the simulated machine -- same
// API, same uniform permutation distribution -- differing only in speed
// and in what the Report carries.
package randperm_test

import (
	"runtime"
	"testing"

	"randperm"
	"randperm/internal/core"
	"randperm/internal/stats"
)

func iotaInt64(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	return v
}

func TestParseBackend(t *testing.T) {
	for s, want := range map[string]randperm.Backend{
		"sim":       randperm.BackendSim,
		"shmem":     randperm.BackendSharedMem,
		"inplace":   randperm.BackendInPlace,
		"bijective": randperm.BackendBijective,
		"cluster":   randperm.BackendCluster,
	} {
		got, err := randperm.ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	for s, want := range map[string]randperm.Backend{
		"sharedmem":    randperm.BackendSharedMem,
		"shared-mem":   randperm.BackendSharedMem,
		"in-place":     randperm.BackendInPlace,
		"mergeshuffle": randperm.BackendInPlace,
		"feistel":      randperm.BackendBijective,
		"cgm":          randperm.BackendCluster,
	} {
		if got, err := randperm.ParseBackend(s); err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"quantum", "gpu"} {
		if _, err := randperm.ParseBackend(s); err == nil {
			t.Errorf("ParseBackend accepted garbage %q", s)
		}
	}
	if got := randperm.Backend(9).String(); got != "Backend(9)" {
		t.Errorf("Backend(9).String() = %q, want \"Backend(9)\"", got)
	}
}

// TestUnknownBackendRefused: a Backend value outside the enumeration is
// an error naming the value on every entry point, never a silent run of
// some other engine.
func TestUnknownBackendRefused(t *testing.T) {
	opt := randperm.Options{Backend: randperm.Backend(9)}
	const want = "randperm: unknown backend Backend(9)"
	if _, _, err := randperm.ParallelShuffle(iotaInt64(10), opt); err == nil || err.Error() != want {
		t.Errorf("ParallelShuffle: err = %v, want %q", err, want)
	}
	blocks := [][]int64{iotaInt64(5), iotaInt64(5)}
	if _, _, err := randperm.ParallelShuffleBlocks(blocks, []int64{5, 5}, opt); err == nil || err.Error() != want {
		t.Errorf("ParallelShuffleBlocks: err = %v, want %q", err, want)
	}
	if _, err := randperm.NewPermuter(10, opt); err == nil || err.Error() != want {
		t.Errorf("NewPermuter: err = %v, want %q", err, want)
	}
}

// TestUnknownMatrixAlgRefused: a MatrixAlg value outside the
// enumeration names itself and is an error on every Sim entry point,
// never a silent run of MatrixOpt.
func TestUnknownMatrixAlgRefused(t *testing.T) {
	for a, want := range map[randperm.MatrixAlg]string{
		randperm.MatrixOpt: "opt", randperm.MatrixLog: "log", randperm.MatrixSeq: "seq",
		7: "MatrixAlg(7)", -1: "MatrixAlg(-1)",
	} {
		if got := a.String(); got != want {
			t.Errorf("MatrixAlg(%d).String() = %q, want %q", int(a), got, want)
		}
	}
	opt := randperm.Options{Matrix: 7}
	const want = "randperm: unknown matrix algorithm MatrixAlg(7)"
	if _, _, err := randperm.ParallelShuffle(iotaInt64(10), opt); err == nil || err.Error() != want {
		t.Errorf("ParallelShuffle: err = %v, want %q", err, want)
	}
	blocks := [][]int64{iotaInt64(5), iotaInt64(5)}
	if _, _, err := randperm.ParallelShuffleBlocks(blocks, []int64{5, 5}, opt); err == nil || err.Error() != want {
		t.Errorf("ParallelShuffleBlocks: err = %v, want %q", err, want)
	}
	if _, _, err := randperm.ParallelSample(iotaInt64(10), 3, opt); err == nil || err.Error() != want {
		t.Errorf("ParallelSample: err = %v, want %q", err, want)
	}
	if _, _, err := randperm.CommMatrixParallel([]int64{5, 5}, []int64{5, 5}, opt); err == nil || err.Error() != want {
		t.Errorf("CommMatrixParallel: err = %v, want %q", err, want)
	}
}

// TestSharedMemShuffle checks permutation validity, input preservation,
// and the Report contract across decomposition widths and worker counts.
func TestSharedMemShuffle(t *testing.T) {
	for _, procs := range []int{1, 4, 8, 64} {
		for _, par := range []int{0, 1, 3} {
			data := iotaInt64(1000)
			out, rep, err := randperm.ParallelShuffle(data, randperm.Options{
				Procs:       procs,
				Seed:        7,
				Backend:     randperm.BackendSharedMem,
				Parallelism: par,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Procs != procs {
				t.Errorf("procs=%d: report.Procs = %d", procs, rep.Procs)
			}
			seen := make([]bool, len(data))
			for _, v := range out {
				if seen[v] {
					t.Fatalf("procs=%d par=%d: duplicate %d", procs, par, v)
				}
				seen[v] = true
			}
			for i, v := range data {
				if v != int64(i) {
					t.Fatalf("procs=%d par=%d: input modified", procs, par)
				}
			}
		}
	}
}

// TestSharedMemReproducible: the SharedMem output is deterministic in
// (Seed, Procs) and independent of Parallelism, because randomness is
// bound to blocks rather than to worker goroutines.
func TestSharedMemReproducible(t *testing.T) {
	data := iotaInt64(500)
	var ref []int64
	for _, par := range []int{1, 2, 8} {
		out, _, err := randperm.ParallelShuffle(data, randperm.Options{
			Procs: 6, Seed: 42, Backend: randperm.BackendSharedMem, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("parallelism=%d diverged at index %d", par, i)
			}
		}
	}
}

// TestInPlaceShuffle mirrors TestSharedMemShuffle for the MergeShuffle
// backend: permutation validity, input preservation, and the Report
// contract across decomposition widths (including non-powers of two)
// and worker counts.
func TestInPlaceShuffle(t *testing.T) {
	for _, procs := range []int{1, 3, 8, 64} {
		for _, par := range []int{0, 1, 3} {
			data := iotaInt64(1000)
			out, rep, err := randperm.ParallelShuffle(data, randperm.Options{
				Procs:       procs,
				Seed:        7,
				Backend:     randperm.BackendInPlace,
				Parallelism: par,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Procs != procs {
				t.Errorf("procs=%d: report.Procs = %d", procs, rep.Procs)
			}
			seen := make([]bool, len(data))
			for _, v := range out {
				if seen[v] {
					t.Fatalf("procs=%d par=%d: duplicate %d", procs, par, v)
				}
				seen[v] = true
			}
			for i, v := range data {
				if v != int64(i) {
					t.Fatalf("procs=%d par=%d: input modified", procs, par)
				}
			}
		}
	}
}

// TestInPlaceParallelismEquivalence: the in-place output is
// deterministic in (Seed, Procs) alone — Parallelism=1 and
// Parallelism=GOMAXPROCS (and anything between) must produce the
// identical permutation, because randomness is bound to merge-tree
// nodes, never to pool workers.
func TestInPlaceParallelismEquivalence(t *testing.T) {
	data := iotaInt64(5000)
	var ref []int64
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		out, _, err := randperm.ParallelShuffle(data, randperm.Options{
			Procs: 8, Seed: 42, Backend: randperm.BackendInPlace, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("parallelism=%d diverged at index %d", par, i)
			}
		}
	}
}

func TestInPlaceShuffleBlocks(t *testing.T) {
	blocks := [][]string{{"a", "b", "c"}, {"d"}, {"e", "f"}}
	target := []int64{2, 2, 2}
	out, rep, err := randperm.ParallelShuffleBlocks(blocks, target, randperm.Options{
		Seed: 11, Backend: randperm.BackendInPlace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != len(blocks) {
		t.Errorf("report.Procs = %d, want %d", rep.Procs, len(blocks))
	}
	if err := core.CheckPermutation(blocks, out, target); err != nil {
		t.Fatal(err)
	}
	if _, _, err := randperm.ParallelShuffleBlocks(blocks, []int64{5, 5}, randperm.Options{
		Backend: randperm.BackendInPlace,
	}); err == nil {
		t.Error("no error for mismatched target sizes")
	}
}

func TestSharedMemShuffleBlocks(t *testing.T) {
	blocks := [][]string{{"a", "b", "c"}, {"d"}, {"e", "f"}}
	target := []int64{2, 2, 2}
	out, rep, err := randperm.ParallelShuffleBlocks(blocks, target, randperm.Options{
		Seed: 11, Backend: randperm.BackendSharedMem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != len(blocks) {
		t.Errorf("report.Procs = %d, want %d", rep.Procs, len(blocks))
	}
	if err := core.CheckPermutation(blocks, out, target); err != nil {
		t.Fatal(err)
	}
	if _, _, err := randperm.ParallelShuffleBlocks(blocks, []int64{5, 5}, randperm.Options{
		Backend: randperm.BackendSharedMem,
	}); err == nil {
		t.Error("no error for mismatched target sizes")
	}
}

// TestBackendsUniform is the cross-backend equivalence test: with the
// same seed-derived streams feeding both engines, each backend must
// generate all n! permutations equally often (chi-square). The backends
// are free to produce different outputs per seed -- they consume the
// streams differently -- but the distributions must both be uniform.
func TestBackendsUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const n = 4
	const trials = 24000
	nf := stats.Factorial(n)
	backends := []randperm.Backend{
		randperm.BackendSim, randperm.BackendSharedMem,
		randperm.BackendInPlace, randperm.BackendCluster,
	}
	for _, backend := range backends {
		counts := make([]int64, nf)
		for tr := 0; tr < trials; tr++ {
			out, _, err := randperm.ParallelShuffle(iotaInt64(n), randperm.Options{
				Procs:   2,
				Seed:    uint64(tr)*0x9E3779B97F4A7C15 + 5,
				Backend: backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			counts[stats.RankPermInt64(out)]++
		}
		res, err := stats.ChiSquareUniform(counts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.0005) {
			t.Errorf("backend=%v: non-uniform, %s", backend, res)
		}
	}
}

// TestSimReportUnchanged pins the Sim backend's cost accounting: the
// refactor onto the engine interface must not change what the simulated
// machine measures (the seed's values, byte for byte).
func TestSimReportUnchanged(t *testing.T) {
	data := iotaInt64(1 << 12)
	a, repA, err := randperm.ParallelShuffle(data, randperm.Options{Procs: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := randperm.ParallelShuffle(data, randperm.Options{
		Procs: 8, Seed: 3, Backend: randperm.BackendSim, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if repA != repB {
		t.Errorf("sim reports differ: %+v vs %+v", repA, repB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sim outputs differ at %d", i)
		}
	}
	// The exact values the seed codebase produced for this workload;
	// everything downstream of the seed is deterministic in it.
	want := randperm.Report{
		Procs: 8, Supersteps: 4,
		MaxOps: 2106, TotalOps: 16648,
		MaxBytes: 4384, MaxDraws: 1038, TotalDraws: 8225,
	}
	if repA != want {
		t.Errorf("sim report drifted from seed: got %+v, want %+v", repA, want)
	}
}
