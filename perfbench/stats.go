package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is left
// in its order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cost is what the whole process consumed: heap bytes allocated and CPU
// time (user and system, every thread). CPU time leaves out the time a
// shared host runs other guests on this one's vCPUs, which wall time on
// such a host does not.
type cost struct {
	bytes uint64
	cpu   time.Duration
}

// readCost reads the process's cumulative cost. The heap figure comes from
// runtime/metrics, which unlike runtime.ReadMemStats does not stop the
// world, so it can bracket a timed window without perturbing it.
func readCost() cost {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for a bad pointer or flag.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return cost{bytes: s[0].Value.Uint64(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since returns the cost between start and c.
func (c cost) since(start cost) cost { return cost{c.bytes - start.bytes, c.cpu - start.cpu} }

// add accumulates another cost.
func (c *cost) add(d cost) {
	c.bytes += d.bytes
	c.cpu += d.cpu
}
