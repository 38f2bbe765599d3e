package randperm

import (
	"fmt"

	"randperm/internal/core"
	"randperm/internal/extmem"
	"randperm/internal/xrand"
)

// CommMatrixParallel samples a communication matrix on a simulated
// machine with one processor per source block, using the selected
// parallel algorithm (the paper's Algorithm 5 or 6; MatrixSeq runs
// Algorithm 3 at the root). It returns the matrix rows and the resource
// report demonstrating Theorem 2's per-processor bounds.
//
// len(rowSizes) fixes the machine size; colSizes may have any length.
func CommMatrixParallel(rowSizes, colSizes []int64, opt Options) ([][]int64, Report, error) {
	opt = opt.withDefaults()
	p := len(rowSizes)
	if p == 0 {
		return nil, Report{}, fmt.Errorf("randperm: need at least one source block")
	}
	cfg, err := opt.coreConfig()
	if err != nil {
		return nil, Report{}, err
	}
	m, mach, err := core.SampleRows(p, cfg.Seed, rowSizes, colSizes, cfg.Matrix)
	if err != nil {
		return nil, Report{}, err
	}
	out := make([][]int64, m.Rows())
	for i := range out {
		out[i] = append([]int64(nil), m.Row(i)...)
	}
	return out, reportOf(mach, p), nil
}

// ExternalShuffleStats reports the I/O cost of an ExternalShuffle run in
// the external-memory model (block transfers of BlockSize items).
type ExternalShuffleStats struct {
	Blocks int64 // data size in blocks, ceil(n/B)
	Reads  int64 // block reads performed
	Writes int64 // block writes performed
}

// IOs returns Reads + Writes.
func (s ExternalShuffleStats) IOs() int64 { return s.Reads + s.Writes }

// ExternalShuffle permutes data uniformly while touching it only in
// streaming passes of blockSize-item blocks and never holding more than
// memory items internally: the paper's Section 6 outlook of driving
// external-memory algorithms with the coarse grained decomposition. The
// shuffle costs O((n/B) log_{M/B}(n/M)) block transfers versus Theta(n)
// for direct Fisher-Yates on disk-resident data; the returned stats hold
// the measured counts.
//
// The permutation distribution is exactly uniform, identical to Shuffle.
func ExternalShuffle(src Source, data []int64, blockSize int, memory int64) (ExternalShuffleStats, error) {
	if blockSize <= 0 {
		return ExternalShuffleStats{}, fmt.Errorf("randperm: block size must be positive")
	}
	v := extmem.FromSlice(data, blockSize)
	if err := extmem.Shuffle(asXrand(src), v, extmem.ShuffleOptions{Memory: memory}); err != nil {
		return ExternalShuffleStats{}, err
	}
	copy(data, v.Snapshot())
	return ExternalShuffleStats{
		Blocks: v.Blocks(),
		Reads:  v.Reads(),
		Writes: v.Writes(),
	}, nil
}

// asXrand adapts the public Source to the internal interface without
// allocation when possible.
func asXrand(src Source) xrand.Source {
	if x, ok := src.(xrand.Source); ok {
		return x
	}
	return sourceAdapter{src}
}

type sourceAdapter struct{ s Source }

func (a sourceAdapter) Uint64() uint64 { return a.s.Uint64() }
