package stats

// MaxInt64 returns the maximum of an int64 sample (0 for empty input).
func MaxInt64(xs []int64) int64 {
	var m int64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
