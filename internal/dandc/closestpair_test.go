package dandc

import (
	"testing"

	"lopram/internal/palrt"
	"lopram/internal/workload"
)

// pointsFromBytes decodes consecutive byte pairs as signed coordinates
// divided by den+1, so the corpus can spell out duplicates, shared x or y
// values, negative coordinates and inexact (rounded) fractions.
func pointsFromBytes(coords []byte, den byte) []workload.Point {
	scale := float64(den) + 1
	pts := make([]workload.Point, len(coords)/2)
	for i := range pts {
		pts[i] = workload.Point{
			X: float64(int8(coords[2*i])) / scale,
			Y: float64(int8(coords[2*i+1])) / scale,
		}
	}
	return pts
}

// FuzzClosestPair checks the sequential kernel, and the parallel one at
// grain 4 (so even small inputs fork), against the O(n²) oracle for exact
// equality: both must find a pair at the true minimum squared distance.
// The seed corpus (testdata/fuzz/FuzzClosestPair) covers n = 2 and 3,
// duplicate points, all points on one x, all points on one y, a clustered
// strip around the dividing line and negative coordinates.
func FuzzClosestPair(f *testing.F) {
	rt := palrt.New(4)
	f.Fuzz(func(t *testing.T, coords []byte, den byte) {
		pts := pointsFromBytes(coords, den)
		if len(pts) < 2 {
			return
		}
		want := BruteForceClosest(pts)
		if got := ClosestPairSeq(pts); got != want {
			t.Fatalf("ClosestPairSeq(%v) = %v, want %v", pts, got, want)
		}
		if got := closestPair(rt, pts, 4); got != want {
			t.Fatalf("ClosestPair at grain 4 of %v = %v, want %v", pts, got, want)
		}
	})
}

// TestClosestPairAllocsIndependentOfN pins the kernel to its two n-sized
// buffers: no allocation per recursion node. ClosestPairSeq allocates the
// same at n = 64 and n = 4096. ClosestPair, at p = 1 and p = 4, allocates
// the same at n = 64 and at its grain; above the grain the only additions
// are the closures of its palthreads blocks, which palrt.Do retains and so
// are heap objects: a handful per block, never one per point.
func TestClosestPairAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(n int, run func([]workload.Point)) float64 {
		pts := workload.Points(workload.NewRNG(uint64(n)), n)
		return testing.AllocsPerRun(20, func() { run(pts) })
	}
	seq := func(pts []workload.Point) { ClosestPairSeq(pts) }
	if small, large := allocs(64, seq), allocs(4096, seq); small != large {
		t.Errorf("ClosestPairSeq allocates %v at n=64 but %v at n=4096", small, large)
	}
	for _, p := range []int{1, 4} {
		rt := palrt.New(p)
		par := func(pts []workload.Point) { ClosestPair(rt, pts) }
		small := allocs(64, par)
		if atGrain := allocs(cpThreshold, par); atGrain != small {
			t.Errorf("p=%d: ClosestPair allocates %v at n=64 but %v at n=%d", p, small, atGrain, cpThreshold)
		}
		// n = 4096 forks 3 blocks in the x presort and 3 in the recursion.
		const blocks, perBlock = 6, 4
		if large := allocs(4096, par); large > small+blocks*perBlock {
			t.Errorf("p=%d: ClosestPair allocates %v at n=4096, want <= %v + %d per palthreads block",
				p, large, small, perBlock)
		}
	}
}
