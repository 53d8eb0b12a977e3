package dandc

import (
	"slices"
	"testing"

	"lopram/internal/palrt"
)

// sortedRun decodes a non-decreasing run: it starts at start and each byte
// adds its value, so zero bytes make duplicates and an all-zero run is
// all-equal.
func sortedRun(start int32, deltas []byte) []int {
	out := make([]int, len(deltas))
	v := int(start)
	for i, d := range deltas {
		v += int(d)
		out[i] = v
	}
	return out
}

// FuzzMerge checks the merge kernel, and the parallel merge and mergesort
// built on it at the smallest grain, against sorting the concatenation of
// two sorted runs. The seed corpus (testdata/fuzz/FuzzMerge) covers
// duplicates, an empty side, all-equal keys and either side running out
// first.
func FuzzMerge(f *testing.F) {
	rt := palrt.New(4)
	f.Fuzz(func(t *testing.T, xd, yd []byte, x0, y0 int32) {
		x, y := sortedRun(x0, xd), sortedRun(y0, yd)
		n := len(x) + len(y)
		want := slices.Concat(x, y)
		slices.Sort(want)

		// One slot of slack past n: Merge must leave it alone.
		const sentinel = -7
		out := make([]int, n+1)
		out[n] = sentinel
		Merge(x, y, out)
		if !slices.Equal(out[:n], want) || out[n] != sentinel {
			t.Fatalf("Merge(%v, %v) = %v, want %v then sentinel", x, y, out, want)
		}

		pm := make([]int, n)
		parallelMerge(rt, x, y, pm, 2)
		if !slices.Equal(pm, want) {
			t.Fatalf("parallelMerge(%v, %v) = %v, want %v", x, y, pm, want)
		}

		ms := slices.Concat(x, y)
		mergeSortGrain(rt, ms, 2, true)
		if !slices.Equal(ms, want) {
			t.Fatalf("MergeSortParMerge at grain 2 of %v = %v, want %v", slices.Concat(x, y), ms, want)
		}
	})
}

// TestMergeZeroAllocs pins the merge kernel, which runs at every level of
// every mergesort here, to zero allocations.
func TestMergeZeroAllocs(t *testing.T) {
	x := sortedRun(0, []byte{1, 0, 3, 2, 0, 9, 1, 1})
	y := sortedRun(2, []byte{0, 0, 4, 1, 7})
	out := make([]int, len(x)+len(y))
	if allocs := testing.AllocsPerRun(100, func() { Merge(x, y, out) }); allocs != 0 {
		t.Fatalf("Merge allocates %v times per call, want 0", allocs)
	}
}
