package main

import (
	"fmt"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
	"lopram/internal/workload"
)

// specSet is the distinct specs a workload submits, with the reference
// outcome of each: core.RunAlgorithm called directly, once per spec,
// during set-up. Every result the serving stack returns, executed or
// cached, is checked against it.
type specSet struct {
	specs []jobqueue.Spec
	refs  []core.Outcome
	// runUS is the serial RunAlgorithm time of each spec, in µs, by
	// engine: the core layer's cost on this workload's inputs.
	runUS map[core.Engine][]float64
}

func newSpecSet(specs []jobqueue.Spec) (*specSet, error) {
	s := &specSet{specs: specs, refs: make([]core.Outcome, len(specs)), runUS: map[core.Engine][]float64{}}
	for i, sp := range specs {
		t := time.Now()
		out, err := core.RunAlgorithm(sp.Algorithm, sp.Engine, sp.N, sp.P, sp.Seed)
		if err != nil {
			return nil, fmt.Errorf("reference run of %v: %w", sp, err)
		}
		s.runUS[sp.Engine] = append(s.runUS[sp.Engine], float64(time.Since(t))/float64(time.Microsecond))
		s.refs[i] = out
	}
	return s, nil
}

// sameOutcome compares every deterministic field of two outcomes. Wall
// time and the palrt scheduler split vary from run to run and are not
// compared.
func sameOutcome(got, want core.Outcome) bool {
	return got.Steps == want.Steps && got.Work == want.Work && got.Threads == want.Threads &&
		got.Value == want.Value && got.Check == want.Check
}

// streamPoolSize is how many distinct specs stream-unique cycles through:
// 128 times the result cache's 512 entries, so no spec is still cached
// when it comes round again and every job executes.
const streamPoolSize = 1 << 16

// streamSpecs builds stream-unique's pool: reduce N=8 on pram, the
// cheapest engine run in the catalogue, made distinct by seed.
func streamSpecs(seed uint64) []jobqueue.Spec {
	base := workload.NewRNG(seed).Uint64()
	specs := make([]jobqueue.Spec, streamPoolSize)
	for i := range specs {
		specs[i] = jobqueue.Spec{Algorithm: "reduce", N: 8, Engine: core.EnginePRAM, Seed: base + uint64(i)}
	}
	return specs
}

// Interactive-open's traffic mix.
const (
	// openRate is the Poisson arrival rate in jobs per second: about
	// half the single-shot capacity of a 2-vCPU host at this mix.
	openRate = 1000
	// openRepeat is the share of arrivals that resubmit a recent spec,
	// and openRecent how many of the newest distinct specs count as
	// recent: far fewer than the cache's 512 entries, so a repeat is
	// served by the cache or coalesced onto the run in flight.
	openRepeat = 0.5
	openRecent = 32
)

// openAlgos are the catalogue's divide-and-conquer entries. The DP
// entries are left out: their Θ(n²) sim bookkeeping costs tens of ms a
// job and would turn the tail into head-of-line blocking.
var (
	openPalrt = []string{"mergesort", "quicksort", "reduce", "prefixsums", "closestpair", "maxsubarray"}
	openSim   = []string{"mergesort", "reduce", "closestpair", "maxsubarray"}
)

// openSchedule is interactive-open's arrival schedule: when each job is
// due, relative to the start of the run, and which distinct spec it
// submits.
type openSchedule struct {
	due   []time.Duration
	which []int
	specs []jobqueue.Spec
}

// newOpenSchedule draws d worth of Poisson arrivals at openRate. One in
// ten new specs runs on sim (n ≤ 256); the rest run on palrt (n 16–1024).
func newOpenSchedule(seed uint64, d time.Duration) *openSchedule {
	r := workload.NewRNG(seed ^ 0x6f70656e)
	s := &openSchedule{}
	for t := workload.ExpSpacing(r, openRate); t < d; t += workload.ExpSpacing(r, openRate) {
		if len(s.specs) > 0 && r.Float64() < openRepeat {
			lo := max(0, len(s.specs)-openRecent)
			s.due = append(s.due, t)
			s.which = append(s.which, lo+r.Intn(len(s.specs)-lo))
			continue
		}
		spec := jobqueue.Spec{Engine: core.EnginePalrt, Seed: r.Uint64()}
		if r.Intn(10) == 0 {
			spec.Engine = core.EngineSim
			spec.Algorithm = openSim[r.Intn(len(openSim))]
			spec.N = workload.LogUniform(r, 16, 256)
		} else {
			spec.Algorithm = openPalrt[r.Intn(len(openPalrt))]
			spec.N = workload.LogUniform(r, 16, 1024)
		}
		s.due = append(s.due, t)
		s.which = append(s.which, len(s.specs))
		s.specs = append(s.specs, spec)
	}
	return s
}
