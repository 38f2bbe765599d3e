package commat

// Coarsen merges consecutive groups of rows and columns of m into a
// smaller matrix by summation, implementing the block-join of
// Proposition 4 of the paper: rowCuts and colCuts are strictly increasing
// sequences of interior cut positions (0 < c < dim); group r spans
// [cuts[r-1], cuts[r]).
//
// Proposition 4 states the coarsened matrix of a correctly sampled
// communication matrix is itself distributed as the communication matrix
// of the merged-block problem; experiment E7 verifies this by chi-square.
func Coarsen(m *Matrix, rowCuts, colCuts []int) *Matrix {
	rowGroups := groupsFromCuts(m.Rows(), rowCuts)
	colGroups := groupsFromCuts(m.Cols(), colCuts)
	out := New(len(rowGroups), len(colGroups))
	for gi, ri := range rowGroups {
		for i := ri[0]; i < ri[1]; i++ {
			row := m.Row(i)
			for gj, cj := range colGroups {
				var s int64
				for j := cj[0]; j < cj[1]; j++ {
					s += row[j]
				}
				out.Set(gi, gj, out.At(gi, gj)+s)
			}
		}
	}
	return out
}

// groupsFromCuts converts interior cuts into [start, end) ranges covering
// [0, n). It panics on out-of-range or non-increasing cuts.
func groupsFromCuts(n int, cuts []int) [][2]int {
	prev := 0
	groups := make([][2]int, 0, len(cuts)+1)
	for _, c := range cuts {
		if c <= prev || c >= n {
			panic("commat: cuts must be strictly increasing interior positions")
		}
		groups = append(groups, [2]int{prev, c})
		prev = c
	}
	groups = append(groups, [2]int{prev, n})
	return groups
}
