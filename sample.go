package randperm

import (
	"randperm/internal/core"
)

// ParallelSample draws a uniformly random k-subset of data on a
// simulated coarse grained machine: every one of the C(n, k) subsets is
// equally likely. It applies the paper's machinery to its own second
// motivation ("good generation of random samples to test algorithms"):
// the per-processor sample counts are one column of a communication
// matrix, sampled with the configured matrix algorithm, followed by an
// O(k/p + n/p) local selection - so the resource bounds of Theorem 1
// carry over. The input is not modified; the returned sample is in
// uniformly random order.
func ParallelSample[T any](data []T, k int64, opt Options) ([]T, Report, error) {
	opt = opt.withDefaults()
	p := opt.Procs
	if int64(p) > int64(len(data)) && len(data) > 0 {
		p = len(data)
	}
	if p < 1 {
		p = 1
	}
	cfg, err := opt.coreConfig()
	if err != nil {
		return nil, Report{}, err
	}
	sample, m, err := core.SampleKSlice(data, k, p, cfg)
	if err != nil {
		return nil, Report{}, err
	}
	return sample, reportOf(m, p), nil
}
