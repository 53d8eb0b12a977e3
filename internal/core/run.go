package core

import (
	"fmt"
	"math"
	"sort"

	"lopram/internal/dandc"
	"lopram/internal/dp"
	"lopram/internal/master"
	"lopram/internal/memo"
	"lopram/internal/palrt"
	"lopram/internal/pram"
	"lopram/internal/sim"
	"lopram/internal/workload"
)

// This file is the named-algorithm dispatch surface: every algorithm the
// serving layer can run, addressable by (name, engine, n, p, seed). Inputs
// are derived deterministically from the seed, so two runs of the same spec
// — on the same engine or across engines where the result is engine
// independent — produce identical Outcomes. internal/jobqueue dispatches
// through RunAlgorithm; cmd/lopramd exposes it over HTTP.

// Engine selects which execution engine runs a job.
type Engine string

const (
	// EngineSim is the deterministic discrete-time machine simulator:
	// exact simulated step counts under the §3.1 scheduler.
	EngineSim Engine = "sim"
	// EnginePalrt is the goroutine palthreads runtime: real execution on
	// the host's cores.
	EnginePalrt Engine = "palrt"
	// EnginePRAM is the classical Θ(n)-processor PRAM baseline emulated
	// on p processors via Brent's Lemma (§2) — the work-suboptimal
	// comparison point.
	EnginePRAM Engine = "pram"
)

// ParseEngine converts a wire string into an Engine.
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case EngineSim, EnginePalrt, EnginePRAM:
		return Engine(s), nil
	}
	return "", fmt.Errorf("unknown engine %q (want sim, palrt or pram)", s)
}

// Outcome is the engine-reported result of one algorithm run.
type Outcome struct {
	// Steps is the simulated time: T_p machine steps for EngineSim, the
	// Brent-emulated Σ⌈opsᵢ/p⌉ for EnginePRAM, 0 for EnginePalrt (real
	// time is the caller's to measure).
	Steps int64 `json:"steps,omitempty"`
	// Work is the total declared work (sim) or operation count (pram).
	Work int64 `json:"work,omitempty"`
	// Threads is the number of pal-threads created (sim only).
	Threads int `json:"threads,omitempty"`
	// Value is the algorithm's scalar answer where it has one (edit
	// distance, optimal cost, max subarray sum, Σa, …).
	Value int64 `json:"value"`
	// Check is an FNV-1a checksum of the algorithm's full output, used
	// to confirm cross-engine and cache-vs-recompute agreement.
	Check uint64 `json:"check"`
	// Sched is the work-stealing scheduler's spawn/steal/inline breakdown
	// for the run (EnginePalrt only). The split is timing-dependent; the
	// total offered children (Sched.Offered) is deterministic for a spec.
	Sched *palrt.SchedulerStats `json:"sched,omitempty"`
}

// runner executes one (algorithm, engine) pair. Inputs derive from seed.
type runner func(n, p int, seed uint64) (Outcome, error)

// algorithm is one catalogue entry.
type algorithm struct {
	engines map[Engine]runner
	// maxN bounds the admissible input size per engine (admission
	// control: the simulator and the Brent emulator do Θ(n)–Θ(n²) model
	// bookkeeping per run, so unbounded n is a denial of service).
	maxN map[Engine]int
	// minN raises an engine's smallest admissible input size above 1
	// where the algorithm has no answer below it.
	minN map[Engine]int
}

// Algorithms returns the catalogue's algorithm names, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(catalogue))
	for name := range catalogue {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EnginesFor returns the engines supporting the named algorithm, sorted.
func EnginesFor(name string) []Engine {
	a, ok := catalogue[name]
	if !ok {
		return nil
	}
	engines := make([]Engine, 0, len(a.engines))
	for e := range a.engines {
		engines = append(engines, e)
	}
	sort.Slice(engines, func(i, j int) bool { return engines[i] < engines[j] })
	return engines
}

// MaxN returns the largest admissible input size for (name, engine), or 0
// if the pair is unsupported.
func MaxN(name string, engine Engine) int {
	a, ok := catalogue[name]
	if !ok {
		return 0
	}
	if _, ok := a.engines[engine]; !ok {
		return 0
	}
	return a.maxN[engine]
}

// MaxProcs is the largest processor count RunAlgorithm accepts. The LoPRAM
// premise is p = O(log n), so 64 processors already covers n beyond 2⁶⁴;
// larger p is a spec error, not a bigger machine.
const MaxProcs = 64

// ValidateSpec checks (name, engine, n, p) against the catalogue without
// running anything. p = 0 means "model default" (ProcsFor(n)) and is valid.
func ValidateSpec(name string, engine Engine, n, p int) error {
	a, ok := catalogue[name]
	if !ok {
		return fmt.Errorf("unknown algorithm %q", name)
	}
	if _, ok := a.engines[engine]; !ok {
		return fmt.Errorf("algorithm %q does not support engine %q (supported: %v)", name, engine, EnginesFor(name))
	}
	if minN := max(1, a.minN[engine]); n < minN {
		return fmt.Errorf("n must be >= %d for %q on the %s engine, got %d", minN, name, engine, n)
	}
	if maxN := a.maxN[engine]; n > maxN {
		return fmt.Errorf("n=%d exceeds the %s engine's limit %d for %q", n, engine, maxN, name)
	}
	if p < 0 || p > MaxProcs {
		return fmt.Errorf("p must be in [0, %d], got %d", MaxProcs, p)
	}
	return nil
}

// RunAlgorithm runs the named algorithm at input size n with p processors
// (p = 0 selects ProcsFor(n)) on the given engine, deriving inputs from
// seed. Runs are not preemptible — like an activated pal-thread, a job
// "remains active just like a standard thread" once started — so callers
// enforcing deadlines do it around this call; ValidateSpec's size limits
// keep every admissible run bounded.
func RunAlgorithm(name string, engine Engine, n, p int, seed uint64) (Outcome, error) {
	if err := ValidateSpec(name, engine, n, p); err != nil {
		return Outcome{}, err
	}
	if p == 0 {
		p = ProcsFor(n)
	}
	return catalogue[name].engines[engine](n, p, seed)
}

// ---- checksum helpers ----

// checksum is 64-bit FNV-1a over each value's 8 little-endian bytes,
// folded inline: it runs over every full output, so it skips hash/fnv's
// interface Write and per-value byte buffer. Outcome.Check values must stay
// bit-identical to that encoding (replay signatures and perfbench's
// reference check compare them).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

func checksum[T int | int64](a []T) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range a {
		h = fnvUint64(h, uint64(v))
	}
	return h
}

// ---- engine runner builders ----

// simCostModel runs the recurrence's straightforward parallelization on the
// machine simulator, truncated below the spawn frontier (which provably
// does not change the schedule — see CostModel.SpawnDepth).
func simCostModel(rec func() master.IntRec) runner {
	return func(n, p int, _ uint64) (Outcome, error) {
		r := rec()
		cm := dandc.CostModel{Rec: r, SpawnDepth: master.FrontierDepth(p, r.A) + 2}
		res := sim.New(sim.Config{P: p}).MustRun(cm.Program(int64(n)))
		return Outcome{Steps: res.Steps, Work: res.Work, Threads: res.Threads}, nil
	}
}

// simDP runs a DP spec through Algorithm 1 on the simulator.
func simDP(build func(n int, seed uint64) (dp.Spec, func(vals []int64) int64)) runner {
	return func(n, p int, seed uint64) (Outcome, error) {
		spec, answer := build(n, seed)
		g := dp.BuildGraph(spec)
		prog, vals := dp.Program(spec, g, dp.SimOptions{})
		res := sim.New(sim.Config{P: p}).MustRun(prog)
		return Outcome{
			Steps: res.Steps, Work: res.Work, Threads: res.Threads,
			Value: answer(vals), Check: checksum(vals),
		}, nil
	}
}

// palrtRunner builds an EnginePalrt runner: it owns the runtime's
// lifecycle and attaches the scheduler snapshot to the outcome, so every
// palrt engine reports its spawn/steal/inline split without call-site
// churn.
func palrtRunner(run func(rt *palrt.RT, n int, seed uint64) (Outcome, error)) runner {
	return func(n, p int, seed uint64) (Outcome, error) {
		rt := palrt.New(p)
		out, err := run(rt, n, seed)
		if err != nil {
			return out, err
		}
		s := rt.StatsSnapshot()
		out.Sched = &s
		return out, nil
	}
}

// palrtDP runs a DP spec through the counter scheduler on the goroutine
// runtime.
func palrtDP(build func(n int, seed uint64) (dp.Spec, func(vals []int64) int64)) runner {
	return palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
		spec, answer := build(n, seed)
		g := dp.BuildGraphParallel(rt, spec)
		vals, err := dp.RunCounter(spec, g, rt.P())
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Value: answer(vals), Check: checksum(vals)}, nil
	})
}

// pramProgram Brent-emulates a classical PRAM program on p processors.
func pramProgram(build func(n int, seed uint64) (pram.Program, func(res pram.Result) (int64, uint64))) runner {
	return func(n, p int, seed uint64) (Outcome, error) {
		prog, answer := build(n, seed)
		res := pram.Emulate(prog, p)
		value, check := answer(res)
		return Outcome{Steps: res.TimeP, Work: res.Work, Value: value, Check: check}, nil
	}
}

// pow2Floor rounds n down to a power of two (the PRAM network programs
// require power-of-two inputs).
func pow2Floor(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// ---- DP spec builders (shared by the sim and palrt runners so both
// engines see identical inputs for a given seed) ----

func editDistanceSpec(n int, seed uint64) (dp.Spec, func([]int64) int64) {
	r := workload.NewRNG(seed)
	a, b := workload.RelatedStrings(r, n, 4, n/8+1)
	spec := dp.NewEditDistance(a, b)
	return spec, func(vals []int64) int64 { return spec.Distance(vals) }
}

func lcsSpec(n int, seed uint64) (dp.Spec, func([]int64) int64) {
	r := workload.NewRNG(seed)
	a := workload.String(r, n, 4)
	b := workload.String(r, n, 4)
	spec := dp.NewLCS(a, b)
	return spec, func(vals []int64) int64 { return spec.Length(vals) }
}

func knapsackSpec(n int, seed uint64) (dp.Spec, func([]int64) int64) {
	r := workload.NewRNG(seed)
	weights, values := workload.Weights(r, n, 16, 100)
	capacity := 4 * n // half the expected total weight
	spec := dp.NewKnapsack(weights, values, capacity)
	return spec, func(vals []int64) int64 { return spec.Best(vals) }
}

func matrixChainDims(n int, seed uint64) []int {
	return workload.ChainDims(workload.NewRNG(seed), n, 2, 64)
}

// ---- the catalogue ----

var catalogue = map[string]algorithm{
	"mergesort": {
		engines: map[Engine]runner{
			// The Case 2 cost model T(n) = 2T(n/2) + n on the exact
			// scheduler.
			EngineSim: simCostModel(dandc.Mergesort),
			EnginePalrt: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
				a := workload.Ints(workload.NewRNG(seed), n, 1<<30)
				dandc.MergeSort(rt, a)
				if !sort.IntsAreSorted(a) {
					return Outcome{}, fmt.Errorf("mergesort produced unsorted output")
				}
				return Outcome{Check: checksum(a)}, nil
			}),
			// Batcher's bitonic network: the Θ(n log² n)-work baseline.
			EnginePRAM: pramProgram(func(n int, seed uint64) (pram.Program, func(pram.Result) (int64, uint64)) {
				n = pow2Floor(n)
				in := workload.Int64s(workload.NewRNG(seed), n)
				b := pram.BitonicSort{Input: in}
				return b, func(res pram.Result) (int64, uint64) {
					return 0, checksum(b.Sorted(res))
				}
			}),
		},
		maxN: map[Engine]int{EngineSim: 1 << 30, EnginePalrt: 1 << 22, EnginePRAM: 1 << 14},
	},
	"quicksort": {
		engines: map[Engine]runner{
			EnginePalrt: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
				a := workload.Ints(workload.NewRNG(seed), n, 1<<30)
				dandc.QuickSort(rt, a)
				if !sort.IntsAreSorted(a) {
					return Outcome{}, fmt.Errorf("quicksort produced unsorted output")
				}
				return Outcome{Check: checksum(a)}, nil
			}),
		},
		maxN: map[Engine]int{EnginePalrt: 1 << 22},
	},
	"reduce": {
		engines: map[Engine]runner{
			// Binary tree reduction T(n) = 2T(n/2) + 1.
			EngineSim: simCostModel(func() master.IntRec {
				return master.IntRec{A: 2, B: 2, Cutoff: 1, Divide: dandc.Unit, Merge: dandc.Unit, Base: dandc.Unit}
			}),
			EnginePalrt: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
				a := workload.Int64s(workload.NewRNG(seed), n)
				// Bound entries so Σa fits in int64 regardless of n.
				for i := range a {
					a[i] %= 1 << 32
				}
				sum := dandc.ReduceSum(rt, a)
				return Outcome{Value: sum}, nil
			}),
			EnginePRAM: pramProgram(func(n int, seed uint64) (pram.Program, func(pram.Result) (int64, uint64)) {
				n = pow2Floor(n)
				in := workload.Int64s(workload.NewRNG(seed), n)
				for i := range in {
					in[i] %= 1 << 32
				}
				return pram.SumReduction{Input: in}, func(res pram.Result) (int64, uint64) {
					return res.Mem[0], 0
				}
			}),
		},
		maxN: map[Engine]int{EngineSim: 1 << 30, EnginePalrt: 1 << 24, EnginePRAM: 1 << 16},
	},
	"prefixsums": {
		engines: map[Engine]runner{
			EnginePalrt: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
				a := workload.Int64s(workload.NewRNG(seed), n)
				for i := range a {
					a[i] %= 1 << 32
				}
				out := dandc.PrefixSums(rt, a)
				return Outcome{Value: out[len(out)-1], Check: checksum(out)}, nil
			}),
			// Hillis–Steele: Θ(n log n) work, the canonical
			// work-suboptimal PRAM scan.
			EnginePRAM: pramProgram(func(n int, seed uint64) (pram.Program, func(pram.Result) (int64, uint64)) {
				in := workload.Int64s(workload.NewRNG(seed), n)
				for i := range in {
					in[i] %= 1 << 32
				}
				h := pram.HillisSteele{Input: in}
				return h, func(res pram.Result) (int64, uint64) {
					scan := h.Scan(res)
					return scan[len(scan)-1], checksum(scan)
				}
			}),
		},
		maxN: map[Engine]int{EnginePalrt: 1 << 24, EnginePRAM: 1 << 14},
	},
	"editdistance": {
		engines: map[Engine]runner{
			EngineSim:   simDP(editDistanceSpec),
			EnginePalrt: palrtDP(editDistanceSpec),
		},
		// The DP table is Θ(n²) cells; 512 keeps a single sim run in the
		// hundreds of milliseconds.
		maxN: map[Engine]int{EngineSim: 512, EnginePalrt: 1 << 11},
	},
	"lcs": {
		engines: map[Engine]runner{
			EngineSim:   simDP(lcsSpec),
			EnginePalrt: palrtDP(lcsSpec),
		},
		maxN: map[Engine]int{EngineSim: 512, EnginePalrt: 1 << 11},
	},
	"knapsack": {
		engines: map[Engine]runner{
			EngineSim:   simDP(knapsackSpec),
			EnginePalrt: palrtDP(knapsackSpec),
		},
		maxN: map[Engine]int{EngineSim: 96, EnginePalrt: 1 << 10},
	},
	"matrixchain": {
		engines: map[Engine]runner{
			// Top-down parallel memoization (§4.5) on the simulator.
			EngineSim: func(n, p int, seed uint64) (Outcome, error) {
				spec := dp.NewMatrixChain(matrixChainDims(n, seed))
				prog, vals, _ := memo.Program(spec, spec.Cells()-1)
				res := sim.New(sim.Config{P: p}).MustRun(prog)
				return Outcome{
					Steps: res.Steps, Work: res.Work, Threads: res.Threads,
					Value: vals[spec.Cells()-1],
				}, nil
			},
			EnginePalrt: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
				spec := dp.NewMatrixChain(matrixChainDims(n, seed))
				v, _ := memo.Run(rt, spec, spec.Cells()-1)
				return Outcome{Value: v}, nil
			}),
		},
		maxN: map[Engine]int{EngineSim: 96, EnginePalrt: 512},
	},
	"closestpair": {
		engines: map[Engine]runner{
			// T(n) = 2T(n/2) + n: the divide/combine of §4.1's closest
			// pair on the exact scheduler.
			EngineSim: simCostModel(dandc.Mergesort),
			EnginePalrt: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
				pts := workload.Points(workload.NewRNG(seed), n)
				d := dandc.ClosestPair(rt, pts)
				return Outcome{Check: math.Float64bits(d)}, nil
			}),
		},
		maxN: map[Engine]int{EngineSim: 1 << 30, EnginePalrt: 1 << 20},
		// A single point has no pair.
		minN: map[Engine]int{EnginePalrt: 2},
	},
	"maxsubarray": {
		engines: map[Engine]runner{
			EngineSim: simCostModel(dandc.Mergesort),
			EnginePalrt: palrtRunner(func(rt *palrt.RT, n int, seed uint64) (Outcome, error) {
				a := workload.Ints(workload.NewRNG(seed), n, 2001)
				for i := range a {
					a[i] -= 1000 // mixed-sign input, the interesting case
				}
				return Outcome{Value: int64(dandc.MaxSubarray(rt, a))}, nil
			}),
		},
		maxN: map[Engine]int{EngineSim: 1 << 30, EnginePalrt: 1 << 22},
	},
}
