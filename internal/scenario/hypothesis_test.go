package scenario

// The policy-hypothesis suite: executable checks of the scheduling
// claims the policy layer is built on. Each hypothesis is asserted
// strictly, per seed, on deterministic job streams (only placement and
// timing vary between replays):
//
//   - liveness: below saturation, every policy serves every submission —
//     nothing is starved, rejected or timed out;
//   - SJF beats FCFS on mean wait under a heavy-tailed size mix;
//   - EDF beats FCFS and the native discipline on response-time deadline
//     misses when urgent and relaxed traffic share one queue.
//
// The workloads are sized so the differentiation is structural (orders
// of magnitude of backlog), not a timing coincidence: a slower or faster
// host moves the numbers, not the inequalities.

import (
	"context"
	"slices"
	"testing"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
	"lopram/internal/jobtrace"
)

// runPolicyReplay replays sp on a fresh queue under the named dequeue
// policy and returns the report plus every completion record.
func runPolicyReplay(t *testing.T, sp Spec, policy string) (Report, []jobtrace.Record) {
	t.Helper()
	sp.DequeuePolicy = policy
	var sink jobtrace.MemorySink
	cfg := QueueConfig(sp)
	cfg.TraceSink = &sink
	q := jobqueue.New(cfg)
	rep, err := Run(context.Background(), q, sp)
	// Close drains the flight recorder before Records is read.
	q.Close()
	if err != nil {
		t.Fatalf("scenario %s under %s: %v", sp.Name, policy, err)
	}
	return rep, sink.Records()
}

// hypothesisSeeds: every hypothesis must hold strictly at each of these
// stream seeds, not on average over them.
var hypothesisSeeds = []uint64{2, 7, 13}

// TestHypothesisPolicyLiveness: below saturation every dequeue policy —
// and the token-bucket admission under its default budget — serves the
// complete stream: no rejection, no failure, no timeout, and the
// recorder accounts for every submission. This is the no-starvation
// bound: even the job a policy ranks last is served once the queue
// drains, because policies only order the backlog, never drop from it.
func TestHypothesisPolicyLiveness(t *testing.T) {
	base := Spec{
		Name:      "liveness-mix",
		Jobs:      32,
		Clients:   8,
		SeedSpace: 1 << 20,
		Mix: []MixEntry{
			{Algorithm: "reduce", Engine: "palrt", Weight: 4, MinN: 64, MaxN: 1 << 12},
			{Algorithm: "mergesort", Engine: "palrt", Weight: 1, MinN: 1 << 14, MaxN: 1 << 16},
		},
		Workers: 2,
		Shards:  2,
	}
	for _, policy := range jobqueue.DequeuePolicyNames() {
		t.Run(policy, func(t *testing.T) {
			for _, seed := range hypothesisSeeds {
				sp := deepCopy(base)
				sp.Seed = seed
				// The default token budget (256/s, burst 64) is above this
				// stream's arrival rate, so admission must stay invisible.
				sp.AdmissionPolicy = "token-bucket"
				rep, recs := runPolicyReplay(t, sp, policy)
				if rep.Jobs != sp.Jobs || rep.Rejected != 0 || rep.Failures != 0 || rep.Timeouts != 0 {
					t.Fatalf("seed %d: jobs %d/%d, rejected %d, failures %d, timeouts %d — starved or shed below saturation",
						seed, rep.Jobs, sp.Jobs, rep.Rejected, rep.Failures, rep.Timeouts)
				}
				if len(recs) != sp.Jobs {
					t.Fatalf("seed %d: recorder saw %d of %d submissions", seed, len(recs), sp.Jobs)
				}
				for _, r := range recs {
					if r.Disposition == jobtrace.DispositionRejected {
						t.Fatalf("seed %d: %s rejected below saturation", seed, r.Key)
					}
				}
			}
		})
	}
}

// meanExecutedWait averages queueing latency over the records that
// actually ran (hits and coalesces wait on the original run, not in a
// lane, so they would dilute both sides of the comparison equally).
func meanExecutedWait(t *testing.T, recs []jobtrace.Record) float64 {
	t.Helper()
	var sum float64
	var n int
	for _, r := range recs {
		if r.Executed() {
			sum += r.WaitMS
			n++
		}
	}
	if n == 0 {
		t.Fatal("no executed records")
	}
	return sum / float64(n)
}

// TestHypothesisSJFBeatsFCFSMeanWait: on a heavy-tailed mix — many
// small reductions, a few sorts three orders of magnitude larger — the
// predicted-cost SJF policy must deliver a strictly lower mean wait
// than FCFS, per seed. This is the classic SJF claim: under FCFS the
// small jobs queue behind whichever giant arrived first; SJF runs the
// cheap work first and the giants absorb the wait instead.
func TestHypothesisSJFBeatsFCFSMeanWait(t *testing.T) {
	base := Spec{
		Name: "sjf-heavy-tail",
		Jobs: 24,
		// The whole stream in flight at once, so a backlog exists for
		// the policies to order. With fewer clients than jobs, the
		// small jobs drain the queue faster than clients resubmit, and
		// whether a sort arrives to an empty queue (then SJF must run
		// it, exactly as FCFS does) is a race of client wakeups.
		Clients:   24,
		SeedSpace: 1 << 20,
		Mix: []MixEntry{
			{Algorithm: "reduce", Engine: "palrt", Weight: 6, MinN: 64, MaxN: 1 << 10},
			{Algorithm: "mergesort", Engine: "palrt", Weight: 1, MinN: 1 << 17, MaxN: 1 << 18},
		},
		// One worker, one shard: pure queueing discipline, no placement
		// or stealing noise in the comparison.
		Workers: 1,
		Shards:  1,
	}
	for _, seed := range hypothesisSeeds {
		sp := deepCopy(base)
		sp.Seed = seed
		_, fcfsRecs := runPolicyReplay(t, sp, "fcfs")
		sp = deepCopy(base)
		sp.Seed = seed
		_, sjfRecs := runPolicyReplay(t, sp, "sjf")
		fcfs := meanExecutedWait(t, fcfsRecs)
		sjf := meanExecutedWait(t, sjfRecs)
		t.Logf("seed %d: mean executed wait fcfs %.2fms, sjf %.2fms", seed, fcfs, sjf)
		if sjf >= fcfs {
			t.Errorf("seed %d: SJF mean wait %.2fms not below FCFS %.2fms on a heavy tail", seed, sjf, fcfs)
		}
	}
}

// deadlineMisses counts response-time deadline misses: submissions
// whose submit→finish span exceeded their class's deadline. This is
// the client-visible miss (queueing included), not the queue's
// execution timeout — which must never fire here, or the policies
// would be compared on truncated runs.
func deadlineMisses(t *testing.T, recs []jobtrace.Record, deadlines map[string]time.Duration) int {
	t.Helper()
	misses := 0
	for _, r := range recs {
		if r.Outcome == jobtrace.OutcomeTimeout {
			t.Fatalf("%s hit its execution timeout; the deadline mix must stay execution-feasible", r.Key)
		}
		d, ok := deadlines[r.Class]
		if !ok {
			t.Fatalf("record %s in unexpected class %q", r.Key, r.Class)
		}
		if r.FinishNS == 0 {
			continue // served instantly (cache hit) — cannot miss
		}
		if time.Duration(r.FinishNS-r.SubmitNS) > d {
			misses++
		}
	}
	return misses
}

// serialSortWall is the median wall time of n-element palrt mergesorts run
// one at a time (after one warmup run) on this host: the unit that
// host-relative deadlines are set in.
func serialSortWall(n int) time.Duration {
	core.RunAlgorithm("mergesort", core.EnginePalrt, n, 0, 0)
	walls := make([]time.Duration, 7)
	for i := range walls {
		start := time.Now()
		core.RunAlgorithm("mergesort", core.EnginePalrt, n, 0, uint64(i+1))
		walls[i] = time.Since(start)
	}
	slices.Sort(walls)
	return walls[len(walls)/2]
}

// TestHypothesisEDFBeatsFCFSAndDefaultOnMisses: when urgent traffic
// (tight per-class deadline, tiny jobs) shares one worker with relaxed
// traffic (loose deadline, jobs two orders heavier), EDF must produce
// strictly fewer response-time deadline misses than FCFS and than the
// native weighted discipline, per seed. FCFS makes urgent jobs wait out
// the full backlog; the native DWRR gives the urgent class only its
// weight share; EDF serves whatever deadline expires first, so urgent
// jobs overtake every queued sort and at most await one residual run.
//
// The urgent deadline is set in units of this host's sort time, not in
// milliseconds, so a faster or slower host (or engine) moves the numbers
// and not the inequalities: 1.5× the median serial run of the relaxed
// class's largest sort. That clears EDF's worst case (one residual sort)
// and sits well under the FCFS backlog (up to ~Clients/2 queued sorts)
// and the native discipline's (one sort per queued urgent job).
func TestHypothesisEDFBeatsFCFSAndDefaultOnMisses(t *testing.T) {
	const maxSortN = 1 << 18
	sortWall := serialSortWall(maxSortN)
	urgentDeadline := sortWall * 3 / 2
	const relaxedDeadline = 30 * time.Second
	t.Logf("median serial palrt mergesort n=%d: %v; urgent deadline %v", maxSortN, sortWall, urgentDeadline)
	deadlines := map[string]time.Duration{"urgent": urgentDeadline, "relaxed": relaxedDeadline}
	base := Spec{
		Name:      "deadline-mix",
		Jobs:      36,
		Clients:   12,
		SeedSpace: 1 << 20,
		// Both classes weighted (no strict tier): the policies alone
		// decide who goes first, which is exactly what is under test.
		// The class deadlines are execution budgets too, so they must —
		// and do — sit far above each class's actual service time.
		Classes: jobqueue.ClassSet{
			{Name: "urgent", Weight: 1, DefaultDeadline: urgentDeadline},
			{Name: "relaxed", Weight: 1, DefaultDeadline: relaxedDeadline},
		},
		Mix: []MixEntry{
			{Algorithm: "reduce", Engine: "sim", Weight: 1, MinN: 64, MaxN: 256, Priority: "urgent"},
			{Algorithm: "mergesort", Engine: "palrt", Weight: 1, MinN: 1 << 17, MaxN: maxSortN, Priority: "relaxed"},
		},
		Workers: 1,
		Shards:  1,
	}
	for _, seed := range hypothesisSeeds {
		missesOf := func(policy string) int {
			sp := deepCopy(base)
			sp.Seed = seed
			_, recs := runPolicyReplay(t, sp, policy)
			// Misses must come from queueing, not from the urgent jobs'
			// own runs: their median service time stays far below the
			// deadline (the median, so one run preempted by the host does
			// not decide it).
			var runs []float64
			for _, r := range recs {
				if r.Class == "urgent" && r.Executed() {
					runs = append(runs, r.RunMS)
				}
			}
			slices.Sort(runs)
			if len(runs) == 0 {
				t.Fatalf("seed %d %s: no urgent job executed", seed, policy)
			}
			if med := time.Duration(runs[len(runs)/2] * float64(time.Millisecond)); med > urgentDeadline/10 {
				t.Fatalf("seed %d %s: urgent median service time %v, not far below the %v deadline", seed, policy, med, urgentDeadline)
			}
			return deadlineMisses(t, recs, deadlines)
		}
		edf, fcfs, def := missesOf("edf"), missesOf("fcfs"), missesOf("default")
		t.Logf("seed %d: deadline misses edf %d, fcfs %d, default %d", seed, edf, fcfs, def)
		if edf >= fcfs {
			t.Errorf("seed %d: EDF misses %d not below FCFS %d", seed, edf, fcfs)
		}
		if edf >= def {
			t.Errorf("seed %d: EDF misses %d not below the native discipline's %d", seed, edf, def)
		}
	}
}
