package dandc

import (
	"sort"

	"lopram/internal/palrt"
)

// sortThreshold is the subproblem size below which the parallel sorts fall
// back to the sequential algorithm. It bounds pal-thread overhead per the
// usual grain-size rule; correctness does not depend on its value, and the
// tests exercise tiny thresholds explicitly.
const sortThreshold = 1 << 11

// MergeSortSeq sorts a in place with the classical sequential mergesort the
// paper's §3.1 example parallelizes. It allocates one temp buffer.
func MergeSortSeq(a []int) {
	tmp := make([]int, len(a))
	msortSeq(a, tmp)
}

func msortSeq(a, tmp []int) {
	if len(a) <= 32 {
		insertionSort(a)
		return
	}
	mid := len(a) / 2
	msortSeq(a[:mid], tmp[:mid])
	msortSeq(a[mid:], tmp[mid:])
	Merge(a[:mid], a[mid:], tmp)
	copy(a, tmp)
}

// MergeSort sorts a in place on the runtime: the §3.1 program
//
//	palthreads { m_sort(left); m_sort(right); }
//	merge(...)
//
// with a sequential merge (the Theorem 1, Case 2 setting).
func MergeSort(rt *palrt.RT, a []int) {
	mergeSortGrain(rt, a, sortThreshold, false)
}

// MergeSortParMerge is MergeSort with the merge phase parallelized by
// balanced binary splitting (the Equation 5 setting). For mergesort the
// distinction does not change the asymptotic speedup — Case 2 is already
// work-optimal — but it demonstrates the construction and tightens constants.
func MergeSortParMerge(rt *palrt.RT, a []int) {
	mergeSortGrain(rt, a, sortThreshold, true)
}

// mergeSortGrain exposes the grain size for tests.
func mergeSortGrain(rt *palrt.RT, a []int, grain int, parMerge bool) {
	if grain < 2 {
		grain = 2
	}
	tmp := make([]int, len(a))
	msortPar(rt, a, tmp, grain, parMerge)
}

func msortPar(rt *palrt.RT, a, tmp []int, grain int, parMerge bool) {
	if len(a) <= grain {
		msortSeq(a, tmp)
		return
	}
	mid := len(a) / 2
	rt.Do(
		func() { msortPar(rt, a[:mid], tmp[:mid], grain, parMerge) },
		func() { msortPar(rt, a[mid:], tmp[mid:], grain, parMerge) },
	)
	if parMerge {
		parallelMerge(rt, a[:mid], a[mid:], tmp, grain)
	} else {
		Merge(a[:mid], a[mid:], tmp)
	}
	copy(a, tmp)
}

// Merge merges sorted x and y into out[:len(x)+len(y)]; equal keys keep x
// before y. It is the O(n) combine step of every mergesort here
// — the "+ n" of T(n) = 2T(n/2) + n, paid at every recursion level — so it
// is written branch-free: each step stores min(x[i], y[j]) and advances
// exactly one side by the 0/1 result of the comparison, which the compiler
// lowers to SETcc/CMOV instead of a data-dependent jump that mispredicts
// about half the time on random keys. The only branches left are the two
// exhaustion tests, taken once per call.
func Merge(x, y, out []int) {
	out = out[:len(x)+len(y)]
	i, j := 0, 0
	for k := range out {
		if i == len(x) {
			copy(out[k:], y[j:])
			return
		}
		if j == len(y) {
			copy(out[k:], x[i:])
			return
		}
		a, b := x[i], y[j]
		t := 0
		if b < a {
			t = 1
		}
		out[k] = min(a, b)
		i += 1 - t
		j += t
	}
}

// parallelMerge merges sorted x and y into out using the classic
// divide-and-conquer merge: split the larger input at its median, binary
// search the partner, and merge the two halves as independent pal-threads.
// Span O(log² n), work O(n) — an optimal-speedup merge for p = O(log n).
func parallelMerge(rt *palrt.RT, x, y, out []int, grain int) {
	if len(x)+len(y) <= grain {
		Merge(x, y, out)
		return
	}
	if len(x) < len(y) {
		x, y = y, x
	}
	if len(x) == 0 {
		return
	}
	mx := len(x) / 2
	pivot := x[mx]
	// my = first index of y with y[my] >= pivot keeps the merge stable
	// with respect to x-before-y ordering of equal keys.
	my := sort.SearchInts(y, pivot)
	rt.Do(
		func() { parallelMerge(rt, x[:mx], y[:my], out[:mx+my], grain) },
		func() { parallelMerge(rt, x[mx:], y[my:], out[mx+my:], grain) },
	)
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// IsSorted reports whether a is in non-decreasing order.
func IsSorted(a []int) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
}
