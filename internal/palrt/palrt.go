// Package palrt is the goroutine-backed LoPRAM runtime: it executes the same
// pal-thread programs as the simulator, but for real, on the host's cores.
//
// The runtime is a work-stealing scheduler with the paper's §3.1/§4.1
// semantics. Each of the p logical processors owns a bounded deque. A
// palthreads block (Do) offers its children in one batch to a processor's
// deque; idle processors claim work — their own deque newest-first (LIFO,
// the cache-hot end), other processors' deques oldest-first (FIFO, the end
// rooting the largest unexplored subtree). When the block reaches its
// implicit wait, the parent runs child 0 inline (the §3.1 handoff of the
// suspended parent's processor to its first child) and then reclaims every
// child no processor picked up, running them sequentially in creation
// order.
//
// That reclaim is exactly the property §4.1 relies on: "as there are no
// more free cores available, the sequential version of the algorithm is
// used", and crucially "this condition is never explicitly tested for by
// the scheduling algorithm, rather it is a natural consequence of the
// proposed order of execution of the parent child threads". No code here
// tests the recursion depth or counts free cores: a child runs elsewhere
// only if an idle processor claimed it first; otherwise the parent's own
// arrival at the wait runs it inline. A full deque fails the offer outright
// — the saturated machine — and the child falls back the same way.
//
// Compared to the earlier permit-channel runtime (kept as PermitRT for A/B
// benchmarks), no goroutine is created per spawned child: at most p-1
// worker goroutines serve all claims, parking and retiring when the
// machine goes idle, and per-spawn bookkeeping comes from a sync.Pool task
// arena, so the steady-state spawn path allocates nothing. The deques
// themselves are built on a runtime's first offer, so a runtime that never
// offers a child allocates nothing but itself.
package palrt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RT is a LoPRAM runtime with a fixed processor budget. Create one per
// computation (or reuse across computations; idle workers retire on their
// own, so there is nothing to close). The zero value is not usable; call
// New.
//
// The scheduling state — one deque per processor and the workers' wake
// channel — is built on the runtime's first offer, in Do or Go. Workers
// and Join touch it only after that offer, so a run that never offers a
// child (p = 1, or a computation that never splits) allocates nothing
// for scheduling.
type RT struct {
	p      int
	sched  sync.Once
	deques []deque // one inbox per logical processor, built by sched
	rotor  atomic.Uint32
	// pending is the pushed-but-unclaimed task hint; see claim.
	pending   atomic.Int64
	live      atomic.Int32 // running worker goroutines, always <= p-1
	parked    atomic.Int32
	workerSeq atomic.Uint32
	wake      chan struct{} // built by sched

	spawned        atomic.Int64 // children claimed by a worker
	stolen         atomic.Int64 // of those, claimed from a non-owned deque
	inlined        atomic.Int64 // children run sequentially by their parent
	workersStarted atomic.Int64

	// framePool is this runtime's task arena; per-RT so stale deque
	// entries can never alias another runtime's tasks (see getFrame).
	framePool sync.Pool
}

// New returns a runtime with p processors. p < 1 is treated as 1.
// The runtime does not call runtime.GOMAXPROCS; the worker budget alone
// bounds parallelism, so a single process can host several runtimes.
// New allocates only the RT itself; the deques come with the first offer.
func New(p int) *RT {
	if p < 1 {
		p = 1
	}
	return &RT{p: p}
}

// offerTarget builds the scheduling state on the runtime's first offer and
// picks the deque the next offer goes to.
func (rt *RT) offerTarget() int {
	rt.sched.Do(rt.buildSched)
	return int(rt.rotor.Add(1) % uint32(rt.p))
}

func (rt *RT) buildSched() {
	rt.deques = make([]deque, rt.p)
	rt.wake = make(chan struct{}, rt.p)
}

// NewHost returns a runtime sized to the host: min(maxP, GOMAXPROCS).
func NewHost(maxP int) *RT {
	p := runtime.GOMAXPROCS(0)
	if maxP > 0 && p > maxP {
		p = maxP
	}
	return New(p)
}

// P returns the processor budget.
func (rt *RT) P() int { return rt.p }

// Stats returns how many pal-thread children were executed on a fresh
// processor versus inline on their parent's processor since the runtime was
// created (or last reset). Used by the spawn-policy ablation and the
// scheduler tests; StatsSnapshot returns the full breakdown.
func (rt *RT) Stats() (spawned, inline int64) {
	return rt.spawned.Load(), rt.inlined.Load()
}

// StatsSnapshot returns the full scheduler counters for this runtime.
func (rt *RT) StatsSnapshot() SchedulerStats {
	return SchedulerStats{
		P:              rt.p,
		Spawned:        rt.spawned.Load(),
		Stolen:         rt.stolen.Load(),
		Inlined:        rt.inlined.Load(),
		WorkersStarted: rt.workersStarted.Load(),
	}
}

// ResetStats zeroes this runtime's counters (the process-wide aggregates
// behind GlobalStats keep accumulating).
func (rt *RT) ResetStats() {
	rt.spawned.Store(0)
	rt.stolen.Store(0)
	rt.inlined.Store(0)
	rt.workersStarted.Store(0)
}

// Run executes root with fresh counters and returns the scheduler
// statistics of exactly that computation. It is the preferred entry point
// when the caller wants per-run stats: counters reset between Runs.
func (rt *RT) Run(root func()) SchedulerStats {
	rt.ResetStats()
	root()
	return rt.StatsSnapshot()
}

// Do executes a palthreads block: the children run, possibly in parallel,
// and Do returns when all have completed (the block's implicit wait).
//
// Child 0 always runs inline: when the parent suspends at the wait, its
// processor is assigned to the first child (§3.1), and running it on the
// same goroutine realizes that handoff with zero cost. Children 1..k-1 are
// offered to a processor's deque in creation order; each one that no idle
// processor claims is reclaimed by the parent at the wait and runs inline
// after its predecessors, which is precisely the "processor is assigned
// sequentially to the children, in order of creation" rule.
func (rt *RT) Do(children ...func()) {
	k := len(children)
	switch k {
	case 0:
		return
	case 1:
		children[0]()
		return
	}
	if rt.p == 1 {
		// One processor: no worker may exist, so every child runs inline
		// in creation order — the sequential execution §4.1 falls back to.
		for _, child := range children {
			child()
		}
		rt.addInlined(int64(k - 1))
		return
	}
	f := rt.getFrame(k - 1)
	f.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		t := &f.tasks[i-1]
		t.fn = children[i]
		t.frame = f
		t.state.Store(taskPending)
	}
	target := rt.offerTarget()
	pushed := rt.deques[target].pushBatch(f.tasks)
	if pushed > 0 {
		rt.pending.Add(int64(pushed))
		rt.wakeWorkers(pushed)
	}
	children[0]()
	// The wait: reclaim every child still unclaimed — including any that
	// did not fit in the deque — and run it inline, in creation order.
	var inlined int64
	for i := range f.tasks {
		t := &f.tasks[i]
		if t.state.CompareAndSwap(taskPending, taskInline) {
			if i < pushed {
				rt.pending.Add(-1)
			}
			t.fn()
			t.fn = nil
			inlined++
			f.wg.Done()
		}
	}
	if inlined > 0 {
		rt.addInlined(inlined)
	}
	// Every child is now resolved (taken or inline); drop this block's
	// leftover ring entries before the frame can be recycled.
	rt.deques[target].purge(f)
	f.wg.Wait()
	rt.putFrame(f)
}

// Go starts a single pal-thread with nowait semantics and returns a Join
// handle. The child is offered to a deque like a Do child; if the machine
// is saturated (full inbox, or p = 1) it runs inline immediately and the
// returned join is a no-op — the degenerate but correct realization of
// nowait on a saturated machine. A child still unclaimed when Wait is
// called runs inline there, completing the same fallback.
func (rt *RT) Go(child func()) *Join {
	if rt.p == 1 {
		rt.addInlined(1)
		child()
		return &Join{}
	}
	f := rt.getFrame(1)
	f.wg.Add(1)
	t := &f.tasks[0]
	t.fn = child
	t.frame = f
	t.state.Store(taskPending)
	target := rt.offerTarget()
	if rt.deques[target].pushBatch(f.tasks) == 0 {
		rt.addInlined(1)
		t.fn = nil
		child()
		f.wg.Done()
		rt.putFrame(f)
		return &Join{}
	}
	rt.pending.Add(1)
	rt.wakeWorkers(1)
	return &Join{rt: rt, f: f, d: &rt.deques[target]}
}

// Join is the handle returned by Go. Wait may be called from multiple
// goroutines; the pal-thread completes exactly once.
type Join struct {
	rt   *RT
	f    *frame
	d    *deque
	once sync.Once
}

// Wait blocks until the pal-thread completes, running it inline if no
// processor has claimed it yet.
func (j *Join) Wait() {
	if j.f == nil {
		return
	}
	j.once.Do(func() {
		t := &j.f.tasks[0]
		if t.state.CompareAndSwap(taskPending, taskInline) {
			j.rt.pending.Add(-1)
			j.rt.addInlined(1)
			t.fn()
			t.fn = nil
			j.f.wg.Done()
		}
		j.d.purge(j.f)
		j.f.wg.Wait()
		j.rt.putFrame(j.f)
	})
}

// For executes f over [lo, hi) in parallel with optimal speedup, splitting
// the range by recursive halving until segments reach grain. It implements
// the "parallel merging" capability of §4.1 (Equation 5): a D&C algorithm
// whose merge is a data-parallel loop can wrap it in For to move from Case 3
// sequential-merge behaviour (no speedup) to Θ(f(n)/p).
func (rt *RT) For(lo, hi, grain int, f func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	rt.pfor(lo, hi, grain, f)
}

func (rt *RT) pfor(lo, hi, grain int, f func(lo, hi int)) {
	if hi-lo <= grain {
		f(lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	rt.Do(
		func() { rt.pfor(lo, mid, grain, f) },
		func() { rt.pfor(mid, hi, grain, f) },
	)
}

// AlwaysSpawn is the naive policy used by the spawn-policy ablation: every
// child gets its own goroutine regardless of processor availability, so the
// scheduler (Go's, here) sees the full a^depth thread explosion the paper's
// design avoids. Exported for benchmarks only.
func AlwaysSpawn(children ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(children))
	for _, child := range children {
		go func(f func()) {
			defer wg.Done()
			f()
		}(child)
	}
	wg.Wait()
}
