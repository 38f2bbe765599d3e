// Package engine defines the execution-backend abstraction behind the
// parallel API: the four phases of the paper's Algorithm 1 (local
// shuffle, communication-matrix sample, data exchange, local shuffle)
// can run on any of several interchangeable backends. The backends are
// named in one place, the backend table of package randperm.
//
//   - Sim is the simulated PRO machine of internal/pro: one goroutine
//     per processor, message passing through mailboxes, and full
//     superstep/byte/draw accounting, so the paper's Theta-bounds stay
//     observable. The message-passing formulation of Algorithm 1
//     (core.PermuteOn) is written once against the Engine and Worker
//     interfaces below; *pro.Proc implements Worker and
//     pro.(*Machine).Engine() adapts a machine.
//
//   - SharedMem, implemented in this package, executes the same four
//     phases with no mailboxes at all: per-block jump-separated RNG
//     streams, a communication matrix sampled once, its prefix sums
//     turned into disjoint write offsets, and workers scattering items
//     straight into the shared output slice followed by parallel local
//     shuffles. The offset ranges partition the output, so the scatter
//     is data-race-free by construction. When the output layout is
//     prescribed (PermuteBlocks) the matrix comes from the exact
//     fixed-margin distribution of Algorithm 3; when it is free
//     (PermuteSlice) the margins are free too, the matrix degenerates to
//     i.i.d. bucket labels, and the engine picks cache-sized buckets
//     (flatscatter.go).
//
//   - InPlace, also in this package (inplace.go), abandons the scatter
//     decomposition for MergeShuffle's: split into 2^k blocks,
//     Fisher-Yates each block concurrently, then merge adjacent runs
//     pairwise in k parallel rounds with one random bit per placed item.
//     It allocates nothing per item — no labels, no second buffer — so
//     it is the backend for memory-bound workloads and the template for
//     future NUMA/distributed backends.
//
//   - Bijective (bijective.go) does not move data at all: a keyed
//     variable-round Feistel network with cycle-walking defines the
//     permutation as a function, evaluated independently per index in
//     O(1) state. It is the backend behind the streaming Permuter API —
//     any chunk of the permutation costs only the indexes asked for —
//     and the one backend that is NOT exactly uniform over S_n: it is a
//     keyed family with uniform marginals (see bijective.go for the
//     precise statement).
//
// All shared-memory phases dispatch onto one Pool (pool.go) of
// long-lived worker goroutines per engine call; randomness stays bound
// to blocks, merge-tree nodes and index ranges, never to workers, so
// every backend's output is deterministic in the seed and independent
// of the worker count (the determinism contract in ARCHITECTURE.md).
//
// Sim, SharedMem and InPlace produce exactly uniform permutations;
// Bijective trades exactness over S_n for O(1)-state random access.
package engine

// Worker is the per-processor view of an Engine inside an SPMD body: the
// method set Algorithm 1 and the matrix sampling algorithms need. It is
// the interface extracted from *pro.Proc, which remains the canonical
// message-passing implementation.
//
// A Worker is only valid inside the body passed to Engine.Run and must
// not be shared with other goroutines.
type Worker interface {
	// Rank returns this worker's id in [0, P).
	Rank() int
	// P returns the number of workers.
	P() int
	// Barrier synchronizes all workers (and, on accounting backends,
	// starts a new superstep). Every worker must call Barrier the same
	// number of times.
	Barrier()
	// Send transmits payload to worker `to`; self-sends are allowed.
	Send(to int, payload any)
	// Recv blocks until a message from worker `from` is available and
	// returns its payload. Messages from one source arrive in send
	// order.
	Recv(from int) any
	// RecvAny blocks until any message is available and returns its
	// source and payload.
	RecvAny() (from int, payload any)
	// AddOps charges n local operations to the cost accounting.
	// Backends without accounting discard the charge.
	AddOps(n int64)
	// AddDraws charges n raw random draws to the cost accounting.
	AddDraws(n int64)
}

// Engine runs SPMD bodies over a fixed set of workers. The simulated PRO
// machine is the canonical implementation (pro.(*Machine).Engine()).
type Engine interface {
	// P returns the number of workers an SPMD body will run on.
	P() int
	// Run executes body once per worker, each concurrently, and blocks
	// until all return. A panic in any worker is captured and returned
	// as an error annotated with the worker's rank.
	Run(body func(Worker)) error
}
