package jobqueue

import (
	"math/bits"
	"sync/atomic"
)

// lru is a fixed-capacity result cache. It memoizes completed job
// results by Key — the memoization table of §4.5 lifted from DP cells to
// whole jobs: identical requests hit the table instead of recomputing.
// Entries carry the job's rendered name alongside the result, so serving
// a hit never re-renders the spec (the name is a pure function of the
// key, paid once at settle).
//
// The lookup table is also the lock-free read index: an open-addressed,
// linearly probed array of atomic pointers to immutable entries, at
// least twice the capacity, so an update costs O(1) rather than a copy
// of the whole cache. Writes (put, and eviction inside it) happen under
// the owning shard's mutex; a refresh publishes a fresh entry into the
// same slot and eviction is a backward-shift delete, so no entry is
// mutated after publication. Reads (get, lookup) are safe concurrently
// with one writer: every entry they return was in the cache at the
// moment of its atomic load, so a hit linearizes before any concurrent
// eviction. A concurrent backward shift can make a reader miss a
// present key; such misses fall through to the caller's locked
// re-check.
//
// Eviction is insertion-ordered (oldest insert/refresh out first), not
// read-recency-ordered: lock-free readers cannot record recency, so
// promoting on a locked get would make cache contents depend on which
// path a hit took.
type lru struct {
	cap   int
	n     int
	shift uint // 64 - log2(len(slots))
	slots []atomic.Pointer[cacheEntry]
	// oldest and newest end the intrusive insertion-order list.
	oldest, newest *cacheEntry
}

// cacheEntry is one memoized result. key, hash, name and res are
// immutable once the entry is published in a slot; the order links are
// owned by the writer and never read by lock-free readers.
type cacheEntry struct {
	key  Key
	hash uint64
	name string
	res  Result

	older, newer *cacheEntry
}

func newLRU(capacity int) *lru {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	// Slots come from the hash's high bits: the low bits pick the shard
	// (hash % n), so within one shard they are correlated.
	return &lru{
		cap:   capacity,
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		slots: make([]atomic.Pointer[cacheEntry], size),
	}
}

func (c *lru) home(h uint64) int { return int(h >> c.shift) }

// get returns the cached entry for key. It does not promote: only
// writes (put) move entries in the eviction order.
func (c *lru) get(key Key) (*cacheEntry, bool) { return c.lookup(key, key.hash()) }

// lookup is get for a caller that already holds key's hash. The probe is
// bounded by the table size, so a reader racing a writer always
// terminates.
func (c *lru) lookup(key Key, h uint64) (*cacheEntry, bool) {
	mask := len(c.slots) - 1
	i := c.home(h)
	for range c.slots {
		e := c.slots[i].Load()
		if e == nil {
			return nil, false
		}
		if e.hash == h && e.key == key {
			return e, true
		}
		i = (i + 1) & mask
	}
	return nil, false
}

// put inserts or refreshes key, evicting the oldest-inserted entry when
// full. A zero-capacity cache stores nothing. The caller serializes
// writers.
func (c *lru) put(key Key, name string, res Result) { c.insert(key, key.hash(), name, res) }

// insert is put for a caller that already holds key's hash.
func (c *lru) insert(key Key, h uint64, name string, res Result) {
	if c.cap <= 0 {
		return
	}
	e := &cacheEntry{key: key, hash: h, name: name, res: res}
	i, old := c.slotOf(key, h)
	if old != nil {
		c.unlink(old)
	} else {
		if c.n == c.cap {
			c.evictOldest()
			// The backward shift may have moved the probe run's end.
			i, _ = c.slotOf(key, h)
		}
		c.n++
	}
	c.slots[i].Store(e)
	e.older = c.newest
	if c.newest != nil {
		c.newest.newer = e
	} else {
		c.oldest = e
	}
	c.newest = e
}

// slotOf returns the slot holding key and its entry, or the empty slot
// that ends key's probe run and nil. Writer-only: the table is never
// full (n <= cap <= len/2), so the probe terminates.
func (c *lru) slotOf(key Key, h uint64) (int, *cacheEntry) {
	mask := len(c.slots) - 1
	i := c.home(h)
	for {
		e := c.slots[i].Load()
		if e == nil || (e.hash == h && e.key == key) {
			return i, e
		}
		i = (i + 1) & mask
	}
}

// evictOldest removes the oldest-inserted entry by backward-shift
// delete: later members of its probe run move back into the hole, so
// no tombstone is left behind. A reader probing during the shift may
// miss a moved entry; it never finds one that was already evicted.
func (c *lru) evictOldest() {
	e := c.oldest
	c.unlink(e)
	c.n--
	mask := len(c.slots) - 1
	i := c.home(e.hash)
	for c.slots[i].Load() != e {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		next := c.slots[j].Load()
		if next == nil {
			c.slots[i].Store(nil)
			return
		}
		// next may fill the hole at i iff i lies cyclically within
		// [home(next), j): moving it back keeps it on its probe path.
		if (j-c.home(next.hash))&mask >= (j-i)&mask {
			c.slots[i].Store(next)
			i = j
		}
	}
}

// unlink takes e out of the insertion-order list.
func (c *lru) unlink(e *cacheEntry) {
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
	e.older, e.newer = nil, nil
}

// len returns the number of cached results.
func (c *lru) len() int { return c.n }

// each visits every cached entry, oldest insert first, so copying
// entries into another cache in visit order preserves the eviction
// order. Resize uses it to re-hash a retiring shard's results onto the
// new placement table. The caller serializes against writers.
func (c *lru) each(fn func(Key, string, Result)) {
	for e := c.oldest; e != nil; e = e.newer {
		fn(e.key, e.name, e.res)
	}
}
