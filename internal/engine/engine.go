// Package engine holds the in-process backends of the parallel API
// other than the simulated machine. Each runs the four phases of the
// paper's Algorithm 1 (local shuffle, communication-matrix sample, data
// exchange, local shuffle), or computes the permutation outright; the
// backends are named in one place, the backend table of package
// randperm.
//
//   - Sim, the message-passing reference, is not in this package: it is
//     the simulated PRO machine of internal/pro, running core.Permute
//     with one goroutine per processor, mailboxes, and full
//     superstep/byte/draw accounting, so the paper's Theta-bounds stay
//     observable.
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
