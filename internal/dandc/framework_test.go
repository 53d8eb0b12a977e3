package dandc

import (
	"testing"
	"testing/quick"

	"lopram/internal/palrt"
	"lopram/internal/workload"
)

// sumRec sums a slice through the generic framework.
func sumRec() Rec[[]int64, int64] {
	return Rec[[]int64, int64]{
		IsBase: func(a []int64) bool { return len(a) <= 64 },
		Solve: func(a []int64) int64 {
			var s int64
			for _, v := range a {
				s += v
			}
			return s
		},
		Divide: func(a []int64) [][]int64 {
			mid := len(a) / 2
			return [][]int64{a[:mid], a[mid:]}
		},
		Combine: func(_ *palrt.RT, _ []int64, parts []int64) int64 {
			return parts[0] + parts[1]
		},
	}
}

func TestFrameworkSum(t *testing.T) {
	r := workload.NewRNG(1)
	rt := palrt.New(8)
	a := workload.Int64s(r, 100000)
	var want int64
	for i := range a {
		a[i] %= 1000
		want += a[i]
	}
	if got := Run(rt, sumRec(), a); got != want {
		t.Fatalf("parallel framework sum = %d, want %d", got, want)
	}
	if got := RunSeq(rt, sumRec(), a); got != want {
		t.Fatalf("sequential framework sum = %d, want %d", got, want)
	}
}

// msRec is the max-subarray recurrence expressed in the framework; it must
// agree with the hand-written version.
func msFrameworkRec() Rec[[]int, msInfo] {
	return Rec[[]int, msInfo]{
		IsBase: func(a []int) bool { return len(a) <= 32 },
		Solve:  msSeq,
		Divide: func(a []int) [][]int {
			mid := len(a) / 2
			return [][]int{a[:mid], a[mid:]}
		},
		Combine: func(_ *palrt.RT, _ []int, parts []msInfo) msInfo {
			return msCombine(parts[0], parts[1])
		},
	}
}

func TestFrameworkMaxSubarray(t *testing.T) {
	r := workload.NewRNG(2)
	rt := palrt.New(8)
	for trial := 0; trial < 10; trial++ {
		n := 1 + r.Intn(5000)
		a := make([]int, n)
		for i := range a {
			a[i] = r.Intn(201) - 100
		}
		got := Run(rt, msFrameworkRec(), a).best
		want := MaxSubarraySeq(a)
		if got != want {
			t.Fatalf("trial %d: framework %d, oracle %d", trial, got, want)
		}
	}
}

// TestFrameworkMergesort sorts through the framework with a three-way split,
// exercising a != 2 and an rt-using Combine.
func TestFrameworkMergesort(t *testing.T) {
	rec := Rec[[]int, []int]{
		IsBase: func(a []int) bool { return len(a) <= 16 },
		Solve: func(a []int) []int {
			out := append([]int(nil), a...)
			insertionSort(out)
			return out
		},
		Divide: func(a []int) [][]int {
			third := len(a) / 3
			return [][]int{a[:third], a[third : 2*third], a[2*third:]}
		},
		Combine: func(rt *palrt.RT, _ []int, parts [][]int) []int {
			// Merge three sorted runs pairwise, the second merge in
			// parallel chunks.
			tmp := make([]int, len(parts[0])+len(parts[1]))
			Merge(parts[0], parts[1], tmp)
			out := make([]int, len(tmp)+len(parts[2]))
			parallelMerge(rt, tmp, parts[2], out, 64)
			return out
		},
	}
	r := workload.NewRNG(3)
	rt := palrt.New(8)
	for _, n := range []int{1, 17, 1000, 20000} {
		a := workload.Ints(r, n, 500)
		got := Run(rt, rec, a)
		want := append([]int(nil), a...)
		MergeSortSeq(want)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

func TestFrameworkParallelEqualsSequential(t *testing.T) {
	rt := palrt.New(6)
	rec := sumRec()
	err := quick.Check(func(raw []int32) bool {
		a := make([]int64, len(raw))
		for i, v := range raw {
			a[i] = int64(v)
		}
		return Run(rt, rec, a) == RunSeq(rt, rec, a)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrameworkBaseOnly(t *testing.T) {
	rt := palrt.New(2)
	rec := sumRec()
	if got := Run(rt, rec, []int64{1, 2, 3}); got != 6 {
		t.Fatalf("base-only run = %d", got)
	}
}
