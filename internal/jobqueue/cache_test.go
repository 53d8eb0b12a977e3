package jobqueue

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lopram/internal/core"
)

func k(n int) Key { return Key{Algorithm: "mergesort", N: n, P: 2, Engine: core.EngineSim} }

func put(c *lru, key Key, v int64) {
	c.put(key, "job", Result{Outcome: core.Outcome{Value: v}})
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	put(c, k(1), 1)
	put(c, k(2), 2)
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 missing before eviction")
	}
	// Eviction is insertion-ordered and lookups do not promote (the
	// lock-free read index cannot record recency, so the locked path
	// must not either): the get above leaves k1 the oldest insert, and
	// inserting k3 evicts it, not k2.
	put(c, k(3), 3)
	if _, ok := c.get(k(1)); ok {
		t.Fatal("k1 survived eviction despite being the oldest insert")
	}
	if e, ok := c.get(k(2)); !ok || e.res.Value != 2 {
		t.Fatalf("k2 lost or corrupted: %v %v", e, ok)
	}
	if e, ok := c.get(k(3)); !ok || e.res.Value != 3 {
		t.Fatalf("k3 lost or corrupted: %v %v", e, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// A put refresh, by contrast, does promote: re-putting k2 then
	// inserting k4 evicts k3.
	put(c, k(2), 22)
	put(c, k(4), 4)
	if _, ok := c.get(k(3)); ok {
		t.Fatal("k3 survived eviction despite k2's refresh")
	}
	if e, ok := c.get(k(2)); !ok || e.res.Value != 22 {
		t.Fatalf("refreshed k2 lost or corrupted: %v %v", e, ok)
	}
}

func TestLRURefresh(t *testing.T) {
	c := newLRU(4)
	c.put(k(1), "first", Result{Outcome: core.Outcome{Value: 1}})
	c.put(k(1), "second", Result{Outcome: core.Outcome{Value: 42}})
	if c.len() != 1 {
		t.Fatalf("len = %d after double put, want 1", c.len())
	}
	if e, _ := c.get(k(1)); e.res.Value != 42 || e.name != "second" {
		t.Fatalf("refresh lost: %+v", e)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := newLRU(0)
	put(c, k(1), 0)
	if _, ok := c.get(k(1)); ok {
		t.Fatal("zero-capacity cache stored a result")
	}
	if c.len() != 0 {
		t.Fatal("zero-capacity cache non-empty")
	}
}

// TestCacheLockFreeReaders races lock-free readers against one writer
// that inserts, refreshes and evicts over a key space four times the
// capacity. The keys are those one shard of an n-shard table would
// hold, so for n = 3 and 4 their hashes agree in the low bits and only
// the slot's high-bit selection spreads them. Every hit must be a value
// its key was actually given; once the writer stops, get must agree
// with each exactly, and each must list the last-written keys in write
// order.
func TestCacheLockFreeReaders(t *testing.T) {
	const capacity = 64
	writes := 200_000
	if raceEnabled {
		writes = 40_000
	}
	for _, shards := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var keys []Key
			index := make(map[Key]int)
			for seed := uint64(0); len(keys) < 4*capacity; seed++ {
				key := Key{Algorithm: "reduce", N: 8, P: 1, Engine: core.EnginePRAM, Seed: seed}
				if shardIndexFor(key, shards) == 0 {
					index[key] = len(keys)
					keys = append(keys, key)
				}
			}
			c := newLRU(capacity)
			// given[i] is the highest version handed to key i; a value
			// encodes (i, version), so a hit names the key it was given to.
			given := make([]atomic.Int64, len(keys))
			var stop atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(shards), uint64(r)))
					for !stop.Load() {
						i := rng.IntN(len(keys))
						e, ok := c.get(keys[i])
						if !ok {
							continue
						}
						id, ver := e.res.Value>>32, e.res.Value&0xffffffff
						if e.key != keys[i] || id != int64(i) || ver < 1 || ver > given[i].Load() {
							t.Errorf("key %d: hit %+v (id %d, version %d, given up to %d)", i, e.key, id, ver, given[i].Load())
							return
						}
					}
				}(r)
			}
			rng := rand.New(rand.NewPCG(uint64(shards), 99))
			lastWrite := make([]int, len(keys))
			for w := 1; w <= writes; w++ {
				i := rng.IntN(len(keys))
				v := given[i].Add(1)
				lastWrite[i] = w
				c.put(keys[i], "job", Result{Outcome: core.Outcome{Value: int64(i)<<32 | v}})
			}
			stop.Store(true)
			wg.Wait()

			if c.len() != capacity {
				t.Fatalf("len = %d, want %d", c.len(), capacity)
			}
			held := make(map[Key]int64)
			prev := 0
			c.each(func(k Key, _ string, r Result) {
				held[k] = r.Value
				if w := lastWrite[index[k]]; w <= prev {
					t.Errorf("each out of write order: %+v written at %d after %d", k, w, prev)
				} else {
					prev = w
				}
			})
			if len(held) != capacity {
				t.Fatalf("each visited %d distinct keys, want %d", len(held), capacity)
			}
			// The survivors are exactly the capacity most recently written keys.
			byRecency := make([]int, len(keys))
			for i := range byRecency {
				byRecency[i] = i
			}
			sort.Slice(byRecency, func(a, b int) bool { return lastWrite[byRecency[a]] > lastWrite[byRecency[b]] })
			for _, i := range byRecency[:capacity] {
				if _, ok := held[keys[i]]; !ok {
					t.Errorf("key %d (written at %d) evicted ahead of older writes", i, lastWrite[i])
				}
			}
			for i, key := range keys {
				e, ok := c.get(key)
				want, in := held[key]
				if ok != in {
					t.Errorf("key %d: get hit=%v, each holds=%v", i, ok, in)
					continue
				}
				if ok && (e.res.Value != want || e.res.Value&0xffffffff != given[i].Load()) {
					t.Errorf("key %d: get %#x, each %#x, last given version %d", i, e.res.Value, want, given[i].Load())
				}
			}
		})
	}
}

// TestSettleAllocsIndependentOfCacheSize pins the settle flush's cost as
// O(1) in the cache size: settling one unique job into a full cache
// allocates the same at 64 entries as at 4096. A flush that copied the
// cache into a fresh read index would allocate in proportion to it.
func TestSettleAllocsIndependentOfCacheSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates, distorting the counts")
	}
	settle := func(size int) float64 {
		q := New(Config{Workers: 1, Shards: 1, CacheSize: size})
		defer q.Close()
		s := q.place.Load().shards[0]
		s.mu.Lock()
		for i := 0; i < size; i++ {
			s.cache.put(Key{Algorithm: "fill", N: i, P: 1, Engine: core.EnginePRAM}, "fill", Result{})
		}
		full := s.cache.len() == size
		s.mu.Unlock()
		if !full {
			t.Fatalf("cache of %d not full after filling", size)
		}
		ws := &workerState{}
		seed := uint64(0)
		return testing.AllocsPerRun(100, func() {
			seed++
			job := &Job{Name: "job", Spec: Spec{Algorithm: "reduce", N: 8, P: 1, Engine: core.EnginePRAM, Seed: seed}}
			q.bufferCompletion(ws, job, Result{}, nil, time.Microsecond, time.Now())
			q.flushCompletions(ws)
		})
	}
	small, large := settle(64), settle(4096)
	if small != large {
		t.Errorf("settling one job allocates %.1f into a full 64-entry cache but %.1f into a 4096-entry one", small, large)
	}
}
