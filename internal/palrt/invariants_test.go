package palrt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// offeredTree runs a recursive Do tree on rt and returns how many children
// were offered to the scheduler (every child after the first of each
// multi-child block).
func offeredTree(rt *RT, depth, fanout int, leaves *atomic.Int64) int64 {
	var offered atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		jobs := make([]func(), fanout)
		for i := range jobs {
			jobs[i] = func() { rec(depth - 1) }
		}
		if fanout > 1 {
			offered.Add(int64(fanout - 1))
		}
		rt.Do(jobs...)
	}
	rec(depth)
	return offered.Load()
}

// TestInlineFallbackInvariants is the table-driven check of the §4.1
// scheduling discipline across runtime shapes: p=1 never spawns; every
// offered child is accounted for as exactly one of spawned or inlined;
// steals are a subset of spawns; and Run resets the counters between
// computations.
func TestInlineFallbackInvariants(t *testing.T) {
	cases := []struct {
		name          string
		p             int
		depth, fanout int
	}{
		{"p1-binary", 1, 6, 2},
		{"p1-wide", 1, 2, 16},
		{"p2-binary", 2, 8, 2},
		{"p3-ternary", 3, 5, 3},
		{"p4-wide", 4, 3, 8},
		{"p8-binary", 8, 10, 2},
		{"p8-wide", 8, 2, 64},
		{"p16-deep", 16, 12, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.p)
			var leaves atomic.Int64
			var offered int64
			s := rt.Run(func() {
				offered = offeredTree(rt, tc.depth, tc.fanout, &leaves)
			})

			wantLeaves := int64(1)
			for i := 0; i < tc.depth; i++ {
				wantLeaves *= int64(tc.fanout)
			}
			if leaves.Load() != wantLeaves {
				t.Fatalf("ran %d leaves, want %d", leaves.Load(), wantLeaves)
			}
			if s.Spawned+s.Inlined != offered {
				t.Errorf("spawned %d + inlined %d != offered %d", s.Spawned, s.Inlined, offered)
			}
			if s.Offered() != offered {
				t.Errorf("Offered() = %d, want %d", s.Offered(), offered)
			}
			if tc.p == 1 {
				if s.Spawned != 0 || s.Stolen != 0 || s.WorkersStarted != 0 {
					t.Errorf("p=1 runtime spawned: %+v", s)
				}
			}
			if s.Stolen > s.Spawned {
				t.Errorf("stolen %d exceeds spawned %d", s.Stolen, s.Spawned)
			}

			// Stats reset between Runs: a second, smaller computation must
			// report only its own children.
			var leaves2 atomic.Int64
			var offered2 int64
			s2 := rt.Run(func() {
				offered2 = offeredTree(rt, 1, 2, &leaves2)
			})
			if s2.Offered() != offered2 {
				t.Errorf("second Run offered %d, stats say %d (not reset?)", offered2, s2.Offered())
			}
		})
	}
}

// TestGoOfferAccounting: Go children obey the same accounting — each Go is
// one offered child, resolved as spawned or inlined by Wait time.
func TestGoOfferAccounting(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		rt := New(p)
		const k = 20
		var ran atomic.Int64
		s := rt.Run(func() {
			joins := make([]*Join, k)
			for i := range joins {
				joins[i] = rt.Go(func() { ran.Add(1) })
			}
			for _, j := range joins {
				j.Wait()
			}
		})
		if ran.Load() != k {
			t.Fatalf("p=%d: ran %d of %d Go children", p, ran.Load(), k)
		}
		if s.Offered() != k {
			t.Errorf("p=%d: spawned %d + inlined %d != %d Go children", p, s.Spawned, s.Inlined, k)
		}
	}
}

// TestDequeOverflowFallsBackInline: offering more children than the deque
// holds must not lose or duplicate any — the overflow runs inline.
func TestDequeOverflowFallsBackInline(t *testing.T) {
	rt := New(2)
	const k = dequeCap + 100
	var count atomic.Int64
	jobs := make([]func(), k)
	for i := range jobs {
		jobs[i] = func() { count.Add(1) }
	}
	s := rt.Run(func() { rt.Do(jobs...) })
	if count.Load() != k {
		t.Fatalf("ran %d of %d children", count.Load(), k)
	}
	if s.Offered() != k-1 {
		t.Errorf("offered accounting: %d, want %d", s.Offered(), k-1)
	}
}

// TestFramePoolReuse: repeated blocks on one runtime must stabilize to the
// pooled arena (no per-spawn allocations on the steady path).
func TestFramePoolReuse(t *testing.T) {
	rt := New(4)
	noop := func() {}
	// Warm the pool and workers.
	for i := 0; i < 100; i++ {
		rt.Do(noop, noop)
	}
	allocs := testing.AllocsPerRun(500, func() {
		rt.Do(noop, noop)
	})
	// One variadic []func() escape is inherent to the call; frames, tasks
	// and join state must all come from the pool.
	if allocs > 2 {
		t.Errorf("Do(noop, noop) allocates %.1f objects/op, want <= 2 (arena not pooling)", allocs)
	}
}

// TestSpawnFreeRunAllocatesOnlyRT: the deques and wake channel are built on
// the first offer, so a runtime whose computation never offers a child —
// a single-child block, a loop within its grain — costs one allocation,
// the RT itself.
func TestSpawnFreeRunAllocatesOnlyRT(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var sum int
	leaf := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	}
	child := func() { sum++ }
	var rt *RT
	allocs := testing.AllocsPerRun(100, func() {
		rt = New(8)
		rt.Do(child)
		rt.For(0, 16, 16, leaf)
	})
	if allocs != 1 {
		t.Errorf("New(8) and a spawn-free computation make %v allocations, want 1", allocs)
	}
	if s := rt.StatsSnapshot(); s.Offered() != 0 {
		t.Errorf("spawn-free computation offered %d children", s.Offered())
	}
}

// TestConcurrentFirstOffers: goroutines sharing a fresh runtime race to
// make its first offer, so they race to build its deques; every child of
// every block and every Go must still run exactly once.
func TestConcurrentFirstOffers(t *testing.T) {
	for round := 0; round < 50; round++ {
		rt := New(4)
		var count atomic.Int64
		inc := func() { count.Add(1) }
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g%2 == 0 {
					rt.Do(inc, inc, inc)
				} else {
					rt.Go(inc).Wait()
				}
			}()
		}
		wg.Wait()
		if got, want := count.Load(), int64(4*3+4); got != want {
			t.Fatalf("round %d: ran %d children, want %d", round, got, want)
		}
	}
}

// TestStaleEntriesDoNotWedgeScheduler is the regression test for the ring
// wedging bug: fine-grained blocks whose children are always reclaimed by
// the parent leave stale entries behind, and before compact-on-full those
// entries permanently filled every ring — an idle runtime then refused all
// offers and degraded to sequential execution forever.
func TestStaleEntriesDoNotWedgeScheduler(t *testing.T) {
	rt := New(4)
	noop := func() {}
	// Fill every ring with stale entries many times over.
	for i := 0; i < 10*dequeCap*4; i++ {
		rt.Do(noop, noop)
	}
	// Offers must still be accepted: a slow block's children must be
	// claimable by workers, not forced inline by wedged rings.
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		rt.Do(
			func() { <-block },
			func() { <-block },
		)
		close(done)
	}()
	// The parent is parked in child 0; a worker must be able to claim
	// child 1. Spin briefly waiting for a spawn.
	spawnedNow := func() int64 { s, _ := rt.Stats(); return s }
	deadline := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			if spawnedNow() > 0 {
				close(deadline)
				return
			}
			runtime.Gosched()
		}
		close(deadline)
	}()
	<-deadline
	if spawnedNow() == 0 {
		close(block)
		<-done
		t.Fatal("no worker could claim a child after stale-entry churn: rings wedged")
	}
	close(block)
	<-done
}
