package jobqueue

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobcost"
)

// stealPoll is the fallback interval at which an idle worker re-sweeps
// the other shards for stealable work. The enqueue-time kick is the fast
// wake path; the poll only covers kick loss under pathological timing,
// so it can be slow enough to cost nothing on an idle queue. It also
// bounds how long an idle worker can sit on a superseded placement table
// before re-homing.
const stealPoll = 10 * time.Millisecond

// shard is one independent slice of the queue: its own run queues (one
// per priority class), worker pool, coalescing map, and result cache.
// All mutable state is guarded by mu except the atomic gauges and the
// lock-free cache read index; nothing on a shard is touched by another
// shard's submissions, so contention is confined to the traffic hashed
// here. (Latency rings and per-algorithm aggregates live on the
// workers' own metric shards — see workerMetrics — not here.)
type shard struct {
	idx int
	// runq holds the admitted-but-not-started jobs, one bounded FIFO per
	// priority class, indexed by class-set position. Workers drain
	// strict classes first, then the weighted classes round-robin.
	runq []chan *Job

	// ring is the shard's bounded MPSC submit ring: Batch.Submit
	// publishes pooled frames here without taking mu, and whoever holds
	// mu (a worker between dequeues, or a publisher helping out on a
	// full ring) drains them through the ingest pipeline. Sealed — and
	// its backlog re-homed — when the shard is retired or closed.
	ring *submitRing

	// laneDepths is each class lane's admission bound and laneUsed its
	// current admitted-but-not-started count. Admission is enforced by
	// the counter, not by channel capacity: a resize sizes the new
	// channels base depth + migrated backlog so migration can never be
	// refused, but laneUsed starts at the migrated count, so the
	// *admission* bound stays the configured depth across epochs.
	laneDepths []int
	laneUsed   []atomic.Int64

	mu     sync.Mutex
	closed bool
	// retired marks a shard swapped out of the placement table by a
	// resize: its keyed state has migrated (or is migrating) to the new
	// table. Writers and readers that catch the flag reload the table
	// and retry; only the executed/stolen counters stay meaningful.
	retired  bool
	byID     map[uint64]*Job
	retained []uint64 // submission order, for retention eviction
	inflight map[Key]*Job
	cache    *lru
	limit    int // retention bound for this shard

	// cacheIdx is the lock-free read side of the result cache: an atomic
	// pointer to the same cache, whose table is updated in place under mu
	// and readable without it (see lru). Submit and Batch.Submit serve
	// cache hits from it without touching mu; each hit is an entry that
	// was present when its slot was loaded, so it linearizes before any
	// concurrent eviction, refresh or resize migration, and cached
	// results are immutable. Nil when caching is disabled, after Close,
	// and on retired shards.
	cacheIdx atomic.Pointer[lru]

	pending  atomic.Int64 // jobs admitted here, not yet started
	executed atomic.Int64 // runs of jobs homed here (by any worker)
	stolen   atomic.Int64 // jobs this shard's workers took from other shards
}

// newShard builds one shard: depths are the per-class admission bounds,
// caps the per-class channel capacities (>= depths; nil means equal —
// only Resize passes larger caps, to hold a migrated backlog).
func newShard(idx int, depths, caps []int, cacheCap, retain int) *shard {
	s := &shard{
		idx:        idx,
		ring:       newSubmitRing(submitRingCap),
		runq:       make([]chan *Job, len(depths)),
		laneDepths: append([]int(nil), depths...),
		laneUsed:   make([]atomic.Int64, len(depths)),
		byID:       make(map[uint64]*Job),
		inflight:   make(map[Key]*Job),
		cache:      newLRU(cacheCap),
		limit:      retain,
	}
	if caps == nil {
		caps = depths
	}
	for c, cap := range caps {
		s.runq[c] = make(chan *Job, cap)
	}
	if cacheCap > 0 {
		s.cacheIdx.Store(s.cache)
	}
	return s
}

// insertLocked registers the job for Get/Jobs and evicts over-retention
// terminal jobs; the caller holds s.mu.
func (s *shard) insertLocked(job *Job) {
	s.byID[job.ID] = job
	s.retained = append(s.retained, job.ID)
	s.trimRetention()
}

// ---- placement hashing ----

// hash is the shard-placement hash of a key: FNV-1a over every field, so
// placement is deterministic across queues and processes with the same
// shard count, and identical specs always meet on one shard. The byte
// stream is the algorithm, a 0 byte, the engine, a 0 byte, then N, P and
// Seed as little-endian uint64s — hashed inline rather than through
// hash/fnv, which would convert every field to a []byte behind an
// interface.
func (k Key) hash() uint64 {
	h := fnvString(fnvOffset64, k.Algorithm)
	h *= fnvPrime64 // the 0 separator byte (h ^ 0 == h)
	h = fnvString(h, string(k.Engine))
	h *= fnvPrime64
	h = fnvUint64(h, uint64(int64(k.N)))
	h = fnvUint64(h, uint64(int64(k.P)))
	return fnvUint64(h, k.Seed)
}

func hashString(s string) uint64 { return fnvString(fnvOffset64, s) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// ---- the worker loop ----

// worker is the run loop of one pool worker, identified by its stable
// index into the pool. The worker's home shard is a function of the
// current placement table (workerHome: fair-share dealing, per-shard
// worker counts within one of each other); when a resize supersedes the
// table the worker re-homes against the new one and continues. Credits
// and rotation — the worker's DWRR fairness state — survive re-homing,
// so a resize does not reset the dequeue discipline mid-round.
func (q *Queue) worker(idx int) {
	defer q.workers.Done()
	ws := &workerState{wm: (*q.workerM.Load())[idx]}
	// Flush the completion buffer on the way out — registered after the
	// WaitGroup Done above so it runs first: Close's workers.Wait cannot
	// return while any worker still holds unpublished outcomes.
	defer q.flushCompletions(ws)
	timer := time.NewTimer(stealPoll)
	defer timer.Stop()
	if q.deq != nil {
		// A non-default ordering policy replaces the whole native
		// discipline below with the policy-ordered sweep; the native path
		// runs untouched (and channel-blocking) when no policy is set.
		for {
			p := q.place.Load()
			if q.runEpochOrdered(p, idx, timer, ws) {
				return
			}
		}
	}
	credits := make([]int, len(q.classes.specs))
	rot := 0
	for {
		p := q.place.Load()
		if q.runEpoch(idx, p, credits, &rot, timer, ws) {
			return
		}
	}
}

// runEpoch runs the dequeue discipline against one placement table until
// the table is superseded by a resize (false: the caller re-homes) or the
// queue is closed and drained (true: the worker exits).
//
// Each probe of a class spans the whole table — the home shard's queue
// first, then every other shard's queue of the same class (a steal) — so
// class order is global, not per shard, and an idle shard's sweep for
// stealable work follows the same preference order its own dequeue
// discipline would serve next. The order itself:
//
//   - Strict classes (WeightStrict) are probed first, in set order, and
//     re-probed before every dequeue, so no weighted job starts anywhere
//     while a strict job waits anywhere — stolen work included: a thief
//     always takes a waiting strict job over any weighted one. With the
//     default class set this is exactly the original behavior:
//     interactive always before batch.
//   - Weighted classes share the remaining dequeues deficit-weighted
//     round-robin: each worker keeps a per-class credit balance,
//     replenished by Weight when every balance is spent; a dequeue costs
//     one credit, and a class found empty forfeits its remaining credits
//     for the round (work-conserving — an idle class never banks credit).
//     The steal sweep prefers the classes holding credit (the class the
//     thief is about to serve), falling back to the replenished scan
//     order on the second pass. Under sustained all-class load each round
//     starts Weight jobs per class, so class throughput is proportional
//     to weight and every weighted class keeps making progress.
//
// When nothing is runnable the worker blocks on the home lane of the
// highest-priority strict class (the set's first class when every class
// is weighted) plus the queue-wide kick (every enqueue, every class,
// publishes a kick), with a slow fallback poll; every other class rides
// the kick path rather than the blocking select so a wakeup always
// re-runs the full class discipline — a direct hand-off is only ever
// taken for the class nothing may outrank. Returns once the home lanes
// are closed and drained and a final sweep finds nothing: if the table
// is current that means shutdown; otherwise a resize closed the old
// lanes and the worker re-homes.
func (q *Queue) runEpoch(idx int, p *placement, credits []int, rot *int, timer *time.Timer, ws *workerState) bool {
	cs := &q.classes
	home := p.shards[workerHome(idx, len(p.shards), p.workers)]
	open := make([]bool, len(cs.specs)) // home lanes not yet closed
	for c := range open {
		open[c] = true
	}
	homeOpen := len(open)
	// blockClass is the one home lane the idle blocking select may
	// dequeue directly: the highest-priority strict class, whose direct
	// hand-off can never invert the dequeue discipline. Every other
	// class rides the kick, which re-runs the full discipline. An
	// all-weighted set blocks on its first class — credit-free, which
	// is sound because the select is only reached with every weighted
	// credit at zero (the DWRR passes forfeit on empty), so the hand-off
	// fires from a fully drained round.
	blockClass := 0
	if len(cs.strict) > 0 {
		blockClass = cs.strict[0]
	}

	// tryClass probes one class queue-wide: the home lane (non-blocking,
	// marking it on close), then the other shards' lanes.
	tryClass := func(c int) (*shard, *Job) {
		if open[c] {
			select {
			case job, ok := <-home.runq[c]:
				if !ok {
					open[c] = false
					homeOpen--
				} else {
					return home, job
				}
			default:
			}
		}
		return q.trySteal(p, home, c)
	}

	for {
		if q.place.Load() != p {
			return false // table superseded: re-home
		}
		// Ingest the home shard's ring backlog before each dequeue (a
		// lock-free emptiness probe when the batch path is idle), so
		// ring-published frames enter the class lanes in near-arrival
		// order relative to the locked submit path.
		q.drainRing(p, home)
		var owner *shard
		var job *Job
		for _, c := range cs.strict {
			if owner, job = tryClass(c); job != nil {
				break
			}
		}
		// Two DWRR passes: pass one may find only creditless backlogged
		// classes (credit-holders all empty, forfeiting to zero); the
		// second pass then replenishes and probes every weighted class,
		// so job == nil afterwards means all of them were truly empty.
		for pass := 0; pass < 2 && job == nil && len(cs.weighted) > 0; pass++ {
			spent := true
			for _, c := range cs.weighted {
				if credits[c] > 0 {
					spent = false
					break
				}
			}
			if spent {
				for _, c := range cs.weighted {
					credits[c] = cs.specs[c].Weight
				}
			}
			for i := 0; i < len(cs.weighted) && job == nil; i++ {
				w := (*rot + i) % len(cs.weighted)
				c := cs.weighted[w]
				if credits[c] <= 0 {
					continue
				}
				if owner, job = tryClass(c); job != nil {
					credits[c]--
					*rot = w // keep serving this class until its credit drains
					if credits[c] == 0 {
						*rot = (w + 1) % len(cs.weighted) // quantum spent: move on
					}
				} else {
					credits[c] = 0 // found empty: forfeit the round's remainder
				}
			}
		}
		if job != nil {
			// Chain the wakeup before going busy: this worker may hold
			// the only kick token while another shard's job (its own
			// kick dropped at capacity 1) waits for a sweep.
			q.kickWorkers()
			q.runJob(owner, home.idx, job, ws)
			continue
		}
		if homeOpen == 0 {
			// Home lanes closed, drained, and nothing left to steal. A
			// resize closes lanes only after publishing a new table, so
			// an unchanged table means shutdown.
			return q.place.Load() == p
		}
		// About to park: sweep every shard's ring, not just home's, so a
		// frame published to a shard whose own workers are all busy still
		// gets ingested promptly (the ring analogue of work stealing).
		swept := 0
		for _, s := range p.shards {
			swept += q.drainRing(p, s)
		}
		if swept > 0 {
			continue
		}
		// Parking with buffered completions would strand their waiters
		// until the next dequeue round; publish them first.
		q.flushCompletions(ws)
		var homeBlock chan *Job // nil (never ready) once closed
		if open[blockClass] {
			homeBlock = home.runq[blockClass]
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(stealPoll)
		select {
		case job, ok := <-homeBlock:
			if !ok {
				open[blockClass] = false
				homeOpen--
				continue
			}
			q.kickWorkers()
			q.runJob(home, home.idx, job, ws)
		case <-q.kick:
		case <-timer.C:
		}
	}
}

// trySteal sweeps the other shards' run queues of one class in rotor
// order from the thief's index and claims the first waiting job. Returns
// the shard the job was dequeued from so the run's execution accounting
// lands there.
func (q *Queue) trySteal(p *placement, thief *shard, class int) (*shard, *Job) {
	n := len(p.shards)
	for off := 1; off < n; off++ {
		t := p.shards[(thief.idx+off)%n]
		select {
		case job, ok := <-t.runq[class]:
			if ok {
				thief.stolen.Add(1)
				return t, job
			}
		default:
		}
	}
	return nil, nil
}

// ---- the ordered worker loop (non-default DequeuePolicy) ----

// runEpochOrdered is runEpoch's counterpart when a non-default
// DequeuePolicy is active: instead of per-class FIFO channels consumed
// in strict-then-DWRR order, every dequeue is a policy-ordered sweep of
// the whole table (pickOrdered). Strict classes keep their absolute,
// set-order priority; the policy orders jobs within each strict class
// and across the pooled weighted tier (DWRR weights are not honored by
// ordering policies — see DequeuePolicy). Returns true when the queue is
// shut down and drained, false when the table was superseded by a resize
// and the caller should re-home.
//
// Ordered workers never receive from a run-queue channel outside a
// shard's lock and never block on one: idle workers park on the
// queue-wide kick plus the fallback poll, and shutdown retires them via
// the shards' closed flags and a kick cascade (Close does not close the
// channels in this mode, so a sweep's putback can never hit a closed
// channel).
func (q *Queue) runEpochOrdered(p *placement, idx int, timer *time.Timer, ws *workerState) bool {
	home := p.shards[workerHome(idx, len(p.shards), p.workers)]
	for {
		if q.place.Load() != p {
			return false // table superseded: re-home
		}
		// Ring-published frames must enter the lanes before the ordered
		// sweep can rank them; sweep every shard (the pick below spans
		// the whole table anyway).
		for _, s := range p.shards {
			q.drainRing(p, s)
		}
		owner, job, homeClosed, valid := q.pickOrdered(p, home)
		if !valid {
			// A shard is mid-retirement; the new table is about to be
			// published (or already is — the loop head catches it).
			retryPlacement()
			continue
		}
		if job != nil {
			q.kickWorkers()
			q.runJob(owner, home.idx, job, ws)
			continue
		}
		if homeClosed {
			// Home is closed and a full sweep — every shard, every class,
			// under every shard lock — found nothing, so nothing admitted
			// before the closed flag remains. Chain the kick so the other
			// parked workers re-sweep and exit too.
			q.kickWorkers()
			return q.place.Load() == p
		}
		// About to park: publish buffered completions first (see runEpoch).
		q.flushCompletions(ws)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(stealPoll)
		select {
		case <-q.kick:
		case <-timer.C:
		}
	}
}

// pickOrdered selects the policy-best waiting job across the whole
// table. It locks every shard in index order (Submit and Resize each
// take one shard lock at a time, so the ascending multi-lock cannot
// deadlock) and, tier by tier, drains each lane, keeps the best job by
// q.deq.Before, and puts the rest back. The putback is safe because all
// senders and receivers of these channels run under the shard locks this
// sweep holds: the channel cannot be closed, filled, or reordered
// underneath it, and a putback lands behind the bounded drain window so
// it is never re-examined. valid is false when a shard was caught
// mid-retirement (back out, nothing touched on it); homeClosed reports
// the home shard's closed flag as observed under its lock.
func (q *Queue) pickOrdered(p *placement, home *shard) (owner *shard, job *Job, homeClosed, valid bool) {
	locked := 0
	for _, s := range p.shards {
		s.mu.Lock()
		locked++
		if s.retired {
			for _, t := range p.shards[:locked] {
				t.mu.Unlock()
			}
			return nil, nil, false, false
		}
	}
	defer func() {
		for _, s := range p.shards {
			s.mu.Unlock()
		}
	}()
	homeClosed = home.closed

	pick := func(classes []int) (*shard, *Job) {
		var bestS *shard
		var best *Job
		var bestView JobView
		for _, s := range p.shards {
			for _, c := range classes {
				n := len(s.runq[c])
				for i := 0; i < n; i++ {
					j := <-s.runq[c]
					if best == nil {
						best, bestS, bestView = j, s, q.policyView(j)
						continue
					}
					v := q.policyView(j)
					if q.deq.Before(&v, &bestView) {
						bestS.runq[best.class] <- best
						best, bestS, bestView = j, s, v
					} else {
						s.runq[c] <- j
					}
				}
			}
		}
		return bestS, best
	}

	cs := &q.classes
	for _, c := range cs.strict {
		if s, j := pick([]int{c}); j != nil {
			owner, job = s, j
			break
		}
	}
	if job == nil && len(cs.weighted) > 0 {
		owner, job = pick(cs.weighted)
	}
	if job != nil && owner != home {
		// Same accounting as trySteal: a job dequeued from another shard
		// counts as stolen by the worker's home.
		home.stolen.Add(1)
	}
	return owner, job, homeClosed, true
}

// ---- job execution ----

// inlineUnitWall is the per-unit wall-clock ceiling the inline gate
// prices predictions at: an order of magnitude above the slowest
// per-unit scale ever measured on the tracked engines (sim DP families
// run ~µs/unit), so a run the gate admits inline is pessimistically
// priced before the 10x margin is applied on top.
const inlineUnitWall = 10 * time.Microsecond

// runsInline reports whether a job is safe to execute on the dequeuing
// worker itself instead of a watched run goroutine: the static cost
// model knows the spec, and even priced at inlineUnitWall with a further
// 10x margin the predicted run lands under its deadline. Such a run
// cannot plausibly need the abandonment machinery, so it skips the
// goroutine, the deadline timer and the select entirely; the deadline is
// enforced after the fact instead. Func jobs and unknown specs always
// take the watched path, as does any job whose timeout is tight enough
// that abandonment is a live possibility: a run priced at a tenth of its
// deadline or more, next to which a goroutine and a timer are noise.
func runsInline(job *Job, timeout time.Duration) bool {
	if job.fn != nil {
		return false
	}
	est := jobcost.Predict(job.Spec.Algorithm, job.Spec.Engine, job.Spec.N, job.Spec.key().P)
	if !est.Known {
		return false
	}
	// Float comparison: huge unit counts must not overflow the pricing
	// into a spuriously small Duration.
	return est.Units*float64(inlineUnitWall)*10 < float64(timeout)
}

// execute performs one run — the func job's fn, or the algorithm on its
// engine — and times it from start. Only func jobs consume ctx: the
// engines are not preemptible. The deadline holds exactly, enforced after
// the fact: a run whose wall time exceeds timeout fails with
// deadlineError however it ended, so no job reports success past its
// deadline (the inline path has no watcher, and the watched path's
// watcher can wake late). wall is the run's own time either way; the
// caller counts wall > timeout as a timeout.
func execute(ctx context.Context, job *Job, start time.Time, timeout time.Duration) (res Result, wall time.Duration, err error) {
	if job.fn != nil {
		err = job.fn(ctx)
	} else {
		res.Outcome, err = core.RunAlgorithm(job.Spec.Algorithm, job.Spec.Engine, job.Spec.N, job.Spec.P, job.Spec.Seed)
	}
	wall = time.Since(start)
	if wall > timeout {
		return Result{}, wall, deadlineError(job, timeout)
	}
	res.Wall = wall
	return res, wall, err
}

// deadlineError is the failure of a job that blew its deadline.
func deadlineError(job *Job, timeout time.Duration) error {
	return fmt.Errorf("jobqueue: job %s exceeded its %v deadline: %w", job.Name, timeout, context.DeadlineExceeded)
}

// runJob executes one job under its deadline; owner is the shard the job
// was dequeued from and homeIdx the running worker's home shard (they
// differ when the job was stolen). The engine run itself is not
// preemptible (an activated job "remains active just like a standard
// thread"), so a blown deadline fails the job immediately; the worker
// then either abandons the run to finish in the background (its result
// dropped) if the orphan budget allows, or waits it out to bound total
// concurrency. The finished job's settle work is deferred to the
// worker's completion buffer (bufferCompletion/flushCompletions).
func (q *Queue) runJob(owner *shard, homeIdx int, job *Job, ws *workerState) {
	if job.fn != nil {
		// Publish buffered completions before running arbitrary code: a
		// func job may Submit a key whose unflushed winner sits in this
		// very buffer and Wait on it, which would deadlock — the terminal
		// job only signals at its owning flush.
		q.flushCompletions(ws)
	}
	q.pending.Add(-1)
	owner.pending.Add(-1)
	owner.laneUsed[job.class].Add(-1)
	owner.executed.Add(1)
	// Written before the run goroutine exists and before any flush can
	// run; read only at the completion flush. A steal is a run by a
	// worker homed elsewhere: the origin is the shard it was dequeued
	// from.
	job.execShard = homeIdx
	if owner.idx != homeIdx {
		job.stealFrom = owner.idx
	}
	timeout := q.cfg.DefaultTimeout
	if job.Spec.Timeout > 0 {
		timeout = job.Spec.Timeout
	}
	inline := runsInline(job, timeout)

	if job.pooled {
		// Live references from here: this worker, plus the run goroutine
		// below unless the run is inline. Each drops its count after its
		// last touch, so Batch.Release recycles the frame only once
		// neither an abandoned run nor a racing deadline loser can still
		// write to it.
		if inline {
			job.touches.Store(1)
		} else {
			job.touches.Store(2)
		}
		defer job.touches.Add(-1)
	}
	start := time.Now()
	if !job.markRunning(start) {
		return
	}
	q.running.Add(1)
	defer q.running.Add(-1)

	if inline {
		// The fast path: the run is predicted orders of magnitude under
		// its deadline, so the abandonment machinery cannot plausibly be
		// needed — execute on this worker with no goroutine, no timer and
		// no select. The deadline still holds, enforced after the fact by
		// execute: a mispredicted run that does blow it fails exactly like
		// a held-out deadline run whose orphan budget was exhausted (the
		// worker rode out the whole run either way).
		res, wall, err := execute(context.Background(), job, start, timeout)
		if job.markFinished(res, err, time.Now()) {
			if wall > timeout {
				q.timeouts.Add(1)
			}
			q.bufferCompletion(ws, job, res, err, wall, start)
		}
		return
	}

	// The watched path: the run goes to a one-shot goroutine under a
	// deadline context. It computes res/err, records whether it won the
	// job's terminal transition, and sends on done (one slot, exactly one
	// receiver) — the writes happen-before the send, so whoever receives
	// reads them race-free.
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	done := make(chan struct{}, 1)
	var res Result
	var wall time.Duration
	var err error
	var won bool
	q.orphans.Add(1)
	go func() {
		defer q.orphans.Done()
		defer func() { done <- struct{}{} }()
		if job.pooled {
			defer job.touches.Add(-1)
		}
		res, wall, err = execute(ctx, job, start, timeout)
		// Loses against the worker's deadline finish when the job was
		// abandoned; the computed result is dropped.
		won = job.markFinished(res, err, time.Now())
	}()

	select {
	case <-done:
	case <-ctx.Done():
		terr := deadlineError(job, timeout)
		if job.markFinished(Result{}, terr, time.Now()) {
			q.timeouts.Add(1)
			q.bufferCompletion(ws, job, Result{}, terr, time.Since(start), start)
			q.abandonOrWait(ws, done)
			return
		}
		// The run finished in the same instant and won; adopt its outcome
		// once done publishes the fields.
		<-done
	}
	if won {
		// A run that won but finished past its deadline (the watcher woke
		// late) already carries deadlineError from execute.
		if wall > timeout {
			q.timeouts.Add(1)
		}
		q.bufferCompletion(ws, job, res, err, wall, start)
	}
}

// abandonOrWait disposes of a deadline-blown run whose job the worker has
// already failed; done receives once the run returns. The orphan budget: a
// worker may abandon the run (leaving it to finish in the background) only
// while fewer than 2× the current pool's runs are already abandoned, so
// hostile timeout traffic cannot accumulate unbounded concurrent runs. The
// abandoned gauge doubles as the budget counter — claimed by CAS so a
// budget-exhausted worker never inflates the gauge even transiently — and
// the limit reads the live table, so a pool grown by Resize keeps its
// per-worker abandonment headroom.
func (q *Queue) abandonOrWait(ws *workerState, done <-chan struct{}) {
	limit := int64(2 * q.place.Load().workers)
	for {
		cur := q.abandonedG.Load()
		if cur >= limit {
			break
		}
		if q.abandonedG.CompareAndSwap(cur, cur+1) {
			// Budget claimed: abandon the run and free this worker. A
			// watcher returns the slot when the run drains.
			q.orphans.Add(1)
			go func() {
				defer q.orphans.Done()
				<-done
				q.abandonedG.Add(-1)
			}()
			return
		}
	}
	// Orphan budget exhausted: hold this worker until the run completes so
	// deadline abuse cannot stack up unbounded concurrent runs. The wait
	// can span the whole run; publish the buffered completions (this
	// timeout included) first so their waiters are not held hostage to the
	// abandoned run.
	q.flushCompletions(ws)
	<-done
}
