package dandc

import (
	"math"
	"slices"

	"lopram/internal/palrt"
	"lopram/internal/workload"
)

// Closest pair of points: the classical O(n log n) divide and conquer with
// T(n) = 2T(n/2) + Θ(n) (Case 2 like mergesort). The recursion on the two
// halves runs as a palthreads block; the combine merges the halves by y and
// checks the strip around the dividing line.
//
// The whole run works in two n-sized buffers (Preparata–Shamos): the points
// sorted by x, and one scratch buffer. Each recursion call receives its
// segment sorted by x and leaves it sorted by y, merging the two halves
// through the scratch buffer on the way up; the strip is then collected
// into the scratch buffer. Nothing else is allocated per call.

// ClosestPairSeq returns the minimum squared distance between any two of the
// given points (at least two required) using the sequential algorithm.
func ClosestPairSeq(pts []workload.Point) float64 {
	return closestPair(nil, pts, 0)
}

// ClosestPair is the parallel version on rt.
func ClosestPair(rt *palrt.RT, pts []workload.Point) float64 {
	return closestPair(rt, pts, cpThreshold)
}

const cpThreshold = 1 << 10

// closestPair is the kernel behind both entry points. rt == nil, or a
// segment of at most grain points, runs sequentially.
func closestPair(rt *palrt.RT, pts []workload.Point, grain int) float64 {
	if len(pts) < 2 {
		panic("dandc: closest pair needs at least two points")
	}
	a := slices.Clone(pts)
	buf := make([]workload.Point, len(a))
	sortXY(rt, a, buf, grain)
	return cpRec(rt, a, buf, grain)
}

// sortXY sorts a by (X, Y): a mergesort on the runtime whose leaves of at
// most grain points use slices.SortFunc. buf is scratch of len(a).
func sortXY(rt *palrt.RT, a, buf []workload.Point, grain int) {
	if rt == nil || len(a) <= grain {
		slices.SortFunc(a, cmpXY)
		return
	}
	mid := len(a) / 2
	rt.Do(
		func() { sortXY(rt, a[:mid], buf[:mid], grain) },
		func() { sortXY(rt, a[mid:], buf[mid:], grain) },
	)
	mergePoints(a[:mid], a[mid:], buf, false)
	copy(a, buf)
}

// cpRec returns the minimum squared distance within a, which must be
// sorted by (X, Y), and leaves a sorted by Y. buf is scratch of len(a).
// Segments of more than grain points on a non-nil runtime split as a
// palthreads block.
func cpRec(rt *palrt.RT, a, buf []workload.Point, grain int) float64 {
	n := len(a)
	if n <= 3 {
		d := BruteForceClosest(a)
		insertionSortY(a)
		return d
	}
	mid := n / 2
	midX := a[mid].X
	var d float64
	if rt != nil && n > grain {
		d = cpFork(rt, a, buf, grain)
	} else {
		d = min(cpRec(nil, a[:mid], buf[:mid], 0), cpRec(nil, a[mid:], buf[mid:], 0))
	}
	mergePoints(a[:mid], a[mid:], buf, true)
	copy(a, buf)

	// Strip check: the points within sqrt(d) of the dividing line, in y
	// order; each needs comparing against at most 7 successors. Squared
	// gaps are compared against d directly: a pair's squared distance is
	// never below its squared x or y gap, so no closer pair is pruned.
	strip := buf[:0]
	for _, p := range a {
		if dx := p.X - midX; dx*dx < d {
			strip = append(strip, p)
		}
	}
	for i := range strip {
		for j := i + 1; j < len(strip); j++ {
			if dy := strip[j].Y - strip[i].Y; dy*dy >= d {
				break
			}
			if ds := distSq(strip[i], strip[j]); ds < d {
				d = ds
			}
		}
	}
	return d
}

// cpFork solves a's two halves as one palthreads block. The closures live
// here so that the sequential descent in cpRec captures nothing.
func cpFork(rt *palrt.RT, a, buf []workload.Point, grain int) float64 {
	mid := len(a) / 2
	var dl, dr float64
	rt.Do(
		func() { dl = cpRec(rt, a[:mid], buf[:mid], grain) },
		func() { dr = cpRec(rt, a[mid:], buf[mid:], grain) },
	)
	return min(dl, dr)
}

// mergePoints merges x and y into out[:len(x)+len(y)]. Both are sorted by
// Y when byY is set and by (X, Y) otherwise.
func mergePoints(x, y, out []workload.Point, byY bool) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if before(y[j], x[i], byY) {
			out[k] = y[j]
			j++
		} else {
			out[k] = x[i]
			i++
		}
		k++
	}
	k += copy(out[k:], x[i:])
	copy(out[k:], y[j:])
}

// before reports whether q sorts strictly before p: by Y when byY is set,
// by (X, Y) otherwise.
func before(q, p workload.Point, byY bool) bool {
	if byY || q.X == p.X {
		return q.Y < p.Y
	}
	return q.X < p.X
}

func insertionSortY(a []workload.Point) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Y < a[j-1].Y; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// cmpXY orders points by (X, Y) for slices.SortFunc.
func cmpXY(a, b workload.Point) int {
	switch {
	case before(a, b, false):
		return -1
	case before(b, a, false):
		return 1
	}
	return 0
}

func distSq(a, b workload.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// BruteForceClosest is the O(n²) oracle the tests compare against; cpRec
// also solves its segments of at most 3 points with it.
func BruteForceClosest(pts []workload.Point) float64 {
	best := math.Inf(1)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := distSq(pts[i], pts[j]); d < best {
				best = d
			}
		}
	}
	return best
}
