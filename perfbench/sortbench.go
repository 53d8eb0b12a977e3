package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"time"

	"lopram/internal/core"
	"lopram/internal/dandc"
	"lopram/internal/palrt"
	"lopram/internal/workload"
)

// sortN is palrt-sort's input size, 2^18 ints.
const sortN = 1 << 18

// sortSeeds is how many distinct inputs palrt-sort rotates through.
const sortSeeds = 4

// measurableSpeedup is the speedup the in-run host control must reach
// at p=nproc before palrt's own speedup is reported: below it the host
// is not running the control's goroutines in parallel, so a palrt
// speedup would measure the host, not palrt.
const measurableSpeedup = 1.2

// sortInputs holds palrt-sort's inputs, generated exactly as
// core.RunAlgorithm generates them from the seed, and the reference
// checksum of each: sort.Ints on a copy, hashed the way core hashes a
// sorted output.
type sortInputs struct {
	seeds  []uint64
	inputs [][]int
	checks []uint64
}

func newSortInputs(seed uint64) *sortInputs {
	r := workload.NewRNG(seed ^ 0x736f7274)
	in := &sortInputs{}
	for i := 0; i < sortSeeds; i++ {
		s := r.Uint64()
		a := workload.Ints(workload.NewRNG(s), sortN, 1<<30)
		sorted := append([]int(nil), a...)
		sort.Ints(sorted)
		in.seeds = append(in.seeds, s)
		in.inputs = append(in.inputs, a)
		in.checks = append(in.checks, checksumInts(sorted))
	}
	return in
}

// checksumInts is FNV-1a over each value as 8 little-endian bytes, the
// checksum core reports for a sorted output.
func checksumInts(a []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range a {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// hostSort is the host control: the input split into p parts, each
// sorted by sort.Ints on its own goroutine. Its speedup at p is the most
// the host gives plain goroutines, whatever palrt does.
func hostSort(a []int, p int) {
	var wg sync.WaitGroup
	for k := 0; k < p; k++ {
		wg.Add(1)
		go func(part []int) {
			defer wg.Done()
			sort.Ints(part)
		}(a[k*len(a)/p : (k+1)*len(a)/p])
	}
	wg.Wait()
}

// sortRun is palrt-sort's samples, in ms, keyed by processor count.
type sortRun struct {
	engine, control, mergeOnly map[int][]float64
	attempted, failed          int
	// usedN is what the p=nproc engine runs cost the process, and sched
	// their summed scheduler counters.
	usedN cost
	sched palrt.SchedulerStats
}

// runSort alternates p=1 and p=nproc, each as core.RunAlgorithm and as
// the host control on the same input, for at least one round and until d
// has passed, swapping the order every round so neither side always runs
// first. With mergeOnly it also times dandc.MergeSort alone on the
// pregenerated input, the palrt layer without core's input generation
// and checksum.
func runSort(in *sortInputs, d time.Duration, mergeOnly bool) *sortRun {
	run := &sortRun{engine: map[int][]float64{}, control: map[int][]float64{}, mergeOnly: map[int][]float64{}}
	buf := make([]int, sortN)
	deadline := time.Now().Add(d)
	for it := 0; it == 0 || time.Now().Before(deadline); it++ {
		k := it % len(in.seeds)
		order := []int{1, nproc}
		if it%2 == 1 {
			order = []int{nproc, 1}
		}
		for _, p := range order {
			c0 := readCost()
			t := time.Now()
			out, err := core.RunAlgorithm("mergesort", core.EnginePalrt, sortN, p, in.seeds[k])
			el := time.Since(t)
			used := readCost().since(c0)
			run.attempted++
			if err != nil || out.Check != in.checks[k] {
				run.failed++
				fmt.Fprintf(os.Stderr, "mergesort p=%d seed=%d: check %x, want %x, err %v\n", p, in.seeds[k], out.Check, in.checks[k], err)
			}
			run.engine[p] = append(run.engine[p], ms(el))
			if p == nproc {
				run.usedN.add(used)
				if out.Sched != nil {
					run.sched.Spawned += out.Sched.Spawned
					run.sched.Stolen += out.Sched.Stolen
					run.sched.Inlined += out.Sched.Inlined
				}
			}

			copy(buf, in.inputs[k])
			t = time.Now()
			hostSort(buf, p)
			run.control[p] = append(run.control[p], ms(time.Since(t)))

			if mergeOnly {
				copy(buf, in.inputs[k])
				t = time.Now()
				dandc.MergeSort(palrt.New(p), buf)
				run.mergeOnly[p] = append(run.mergeOnly[p], ms(time.Since(t)))
				run.attempted++
				if checksumInts(buf) != in.checks[k] {
					run.failed++
				}
			}
		}
	}
	return run
}

// speedups reports palrt's speedup (median engine time at p=1 over p=nproc),
// the host control's, and whether the control shows enough parallelism
// for palrt's to mean anything.
func (r *sortRun) speedups() (palrtX, hostX float64, measurable bool) {
	palrtX = median(r.engine[1]) / median(r.engine[nproc])
	hostX = median(r.control[1]) / median(r.control[nproc])
	return palrtX, hostX, hostX >= measurableSpeedup
}
