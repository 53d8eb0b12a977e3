package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"lopram/internal/jobtrace"
)

// setupRuns is how many times a timed run repeats its set-up; setup_s is
// the median.
const setupRuns = 5

// warmRequests is how many requests each connection sends during set-up,
// so connections, pools and caches are warm before timing starts.
const warmRequests = 8

// workloadFunc runs one workload for d. With trace it reports the
// per-layer metrics instead of the end-to-end ones.
type workloadFunc func(seed uint64, d time.Duration, trace bool) (*result, error)

var workloads = map[string]workloadFunc{
	"stream-unique":    streamUnique,
	"interactive-open": interactiveOpen,
	"palrt-sort":       palrtSort,
}

// timedSetup runs setup setupRuns times, keeping the last environment,
// and returns it with the median CPU seconds a set-up consumed and the
// median wall seconds it took.
func timedSetup[E any](setup func() (E, error), teardown func(E)) (env E, cpuS, wallS float64, err error) {
	var cpus, walls []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			teardown(env)
		}
		c, t := readCost(), time.Now()
		if env, err = setup(); err != nil {
			return env, 0, 0, err
		}
		walls = append(walls, time.Since(t).Seconds())
		cpus = append(cpus, readCost().since(c).cpu.Seconds())
	}
	return env, median(cpus), median(walls), nil
}

// reportCost sets the end-to-end metrics every workload shares: set-up
// CPU time, and the CPU time and heap bytes the process spent per job.
func reportCost(res *result, setupCPU, setupWall float64, used cost, jobs int) {
	m := res.metrics
	m["setup_s"] = setupCPU
	m["cpu_us_per_job"] = perJob(float64(used.cpu)/1e3, jobs)
	m["bytes_per_job"] = perJob(float64(used.bytes), jobs)
	res.notef("set-up: median %.3f s CPU, %.3f s wall", setupCPU, setupWall)
}

// perJob divides a total by a job count, counting at least one job so a
// run where everything failed still reports a finite figure.
func perJob(total float64, jobs int) float64 { return total / float64(max(jobs, 1)) }

func closeServer(s *server) {
	if err := s.close(); err != nil {
		fmt.Fprintf(os.Stderr, "closing server: %v\n", err)
	}
}

// ---- stream-unique ----

type streamEnv struct {
	set *specSet
	srv *server
}

// setupStream builds the spec pool and its references, starts the
// server and warms every connection. The warm-up is checked too.
func setupStream(seed uint64, sink jobtrace.Sink, res *result) (*streamEnv, error) {
	set, err := newSpecSet(streamSpecs(seed))
	if err != nil {
		return nil, err
	}
	return startStream(set, sink, res)
}

func startStream(set *specSet, sink jobtrace.Sink, res *result) (*streamEnv, error) {
	srv, err := startServer(sink)
	if err != nil {
		return nil, err
	}
	warm, err := runStream(srv, set, 0, warmRequests, false)
	if err != nil {
		closeServer(srv)
		return nil, err
	}
	res.tally(warm.attempted, warm.failed)
	return &streamEnv{set: set, srv: srv}, nil
}

func streamUnique(seed uint64, d time.Duration, trace bool) (*result, error) {
	if trace {
		return streamUniqueTraced(seed, d)
	}
	res := newResult(endToEnd)
	env, setupCPU, setupWall, err := timedSetup(
		func() (*streamEnv, error) { return setupStream(seed, nil, res) },
		func(e *streamEnv) { closeServer(e.srv) })
	if err != nil {
		return nil, err
	}
	defer closeServer(env.srv)
	run, err := runStream(env.srv, env.set, d, 0, false)
	if err != nil {
		return nil, err
	}
	res.tally(run.attempted, run.failed)
	jobs := run.attempted - run.failed
	reportCost(res, setupCPU, setupWall, run.used, jobs)
	res.notef("%d requests of %d specs on %d connections: %.0f jobs/s; request p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
		len(run.rtts), streamBatch, nproc, float64(jobs)/run.elapsed.Seconds(),
		quantile(run.rtts, 0.5), quantile(run.rtts, 0.9), quantile(run.rtts, 0.99))
	return res, nil
}

// streamUniqueTraced runs half of d untraced and half with the flight
// recorder attached, each on a fresh server over the same spec pool,
// then times the wire and jobqueue calls on their own.
func streamUniqueTraced(seed uint64, d time.Duration) (*result, error) {
	res := newResult(perLayer)
	set, err := newSpecSet(streamSpecs(seed))
	if err != nil {
		return nil, err
	}
	plain, err := startStream(set, nil, res)
	if err != nil {
		return nil, err
	}
	runA, err := runStream(plain.srv, set, d/2, 0, false)
	closeServer(plain.srv)
	if err != nil {
		return nil, err
	}
	res.tally(runA.attempted, runA.failed)

	sink := &jobtrace.MemorySink{}
	traced, err := startStream(set, sink, res)
	if err != nil {
		return nil, err
	}
	before := traced.srv.q.Snapshot()
	runB, err := runStream(traced.srv, set, d/2, 0, true)
	after := traced.srv.q.Snapshot()
	closeServer(traced.srv)
	if err != nil {
		return nil, err
	}
	res.tally(runB.attempted, runB.failed)

	recv := make(map[uint64]int64, runB.attempted)
	for r, ids := range runB.ids {
		for _, id := range ids {
			recv[id] = runB.recv[r]
		}
	}
	traceLayers(res, sink.Records(), recv, runB.elapsed, set)
	queueDeltas(res, before, after)
	coreLayers(res, set)
	if err := wireLayers(res, set, traced.srv.q.Classes()); err != nil {
		return nil, err
	}
	order := make([]int, len(set.specs))
	for i := range order {
		order[i] = i
	}
	if err := queueLayers(res, set, order); err != nil {
		return nil, err
	}

	m := res.metrics
	rateA := float64(runA.attempted-runA.failed) / runA.elapsed.Seconds()
	rateB := float64(runB.attempted-runB.failed) / runB.elapsed.Seconds()
	m["jobtrace.overhead_frac"] = 1 - rateB/rateA
	m["load.jobs_per_s"] = rateA
	m["load.request_p50_ms"] = quantile(runA.rtts, 0.5)
	m["load.request_p90_ms"] = quantile(runA.rtts, 0.9)
	m["load.request_p99_ms"] = quantile(runA.rtts, 0.99)
	// What a job costs the client beyond what the queue and the codec
	// take on their own is the HTTP layer's share.
	wireUS := (m["wire.spec_encode_ns"] + m["wire.spec_decode_ns"] + m["wire.result_encode_ns"] + m["wire.result_decode_ns"]) / 1e3
	queueUS := m["jobqueue.ingest_ns_per_job"]/1e3 + m["jobqueue.settle_us_per_job"]
	m["lopramhttp.self_us_per_job"] = median(runB.rtts)*1e3/streamBatch - queueUS - wireUS
	m["load.failed_frac"] = perJob(float64(res.failed), res.attempted)
	res.notef("untraced %.0f jobs/s, traced %.0f jobs/s", rateA, rateB)
	return res, nil
}

// ---- interactive-open ----

type openEnv struct {
	sched  *openSchedule
	set    *specSet
	bodies [][]byte
	srv    *server
}

func setupOpen(seed uint64, d time.Duration, sink jobtrace.Sink, res *result) (*openEnv, error) {
	sched := newOpenSchedule(seed, d)
	set, err := newSpecSet(sched.specs)
	if err != nil {
		return nil, err
	}
	bodies, err := specBodies(set.specs)
	if err != nil {
		return nil, err
	}
	env := &openEnv{sched: sched, set: set, bodies: bodies}
	return env, env.start(sink, res)
}

// start brings up a fresh server and warms each connection with a few
// of the schedule's specs, checked like the rest.
func (e *openEnv) start(sink jobtrace.Sink, res *result) error {
	srv, err := startServer(sink)
	if err != nil {
		return err
	}
	for i := 0; i < warmRequests*nproc && i < len(e.sched.which); i++ {
		k := e.sched.which[i]
		_, ok := submitWait(srv, e.bodies[k], e.set.refs[k])
		res.tally(1, btoi(!ok))
	}
	e.srv = srv
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// openLatency tallies a run and returns each job's latency from its due
// time, in ms; lateness is how late the load sent it.
func openLatency(res *result, run *openRun) (latency, lateness []float64, good int) {
	for _, a := range run.arr {
		latency = append(latency, float64(a.recv-a.due)/1e6)
		lateness = append(lateness, float64(a.sent-a.due)/1e6)
		good += btoi(a.ok)
	}
	res.tally(len(run.arr), len(run.arr)-good)
	return latency, lateness, good
}

func interactiveOpen(seed uint64, d time.Duration, trace bool) (*result, error) {
	if trace {
		return interactiveOpenTraced(seed, d)
	}
	res := newResult(endToEnd)
	env, setupCPU, setupWall, err := timedSetup(
		func() (*openEnv, error) { return setupOpen(seed, d, nil, res) },
		func(e *openEnv) { closeServer(e.srv) })
	if err != nil {
		return nil, err
	}
	defer closeServer(env.srv)
	run := runOpen(env.srv, env.sched, env.set, env.bodies)
	latency, lateness, good := openLatency(res, run)
	reportCost(res, setupCPU, setupWall, run.used, good)
	res.notef("%d jobs due at %d/s over %d connections; job p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; load late p99 %.3f ms",
		len(run.arr), openRate, nproc, quantile(latency, 0.5), quantile(latency, 0.9), quantile(latency, 0.99), quantile(lateness, 0.99))
	return res, nil
}

// interactiveOpenTraced replays half of d's schedule untraced and the
// same schedule again with the recorder attached, each on a fresh
// server, then splits the traced latency into stages and times the
// layers' calls on their own.
func interactiveOpenTraced(seed uint64, d time.Duration) (*result, error) {
	res := newResult(perLayer)
	env, err := setupOpen(seed, d/2, nil, res)
	if err != nil {
		return nil, err
	}
	runA := runOpen(env.srv, env.sched, env.set, env.bodies)
	closeServer(env.srv)
	latA, _, goodA := openLatency(res, runA)

	sink := &jobtrace.MemorySink{}
	if err := env.start(sink, res); err != nil {
		return nil, err
	}
	before := env.srv.q.Snapshot()
	runB := runOpen(env.srv, env.sched, env.set, env.bodies)
	after := env.srv.q.Snapshot()
	classes := env.srv.q.Classes()
	closeServer(env.srv)
	latB, lateness, _ := openLatency(res, runB)

	recs := sink.Records()
	recv := make(map[uint64]int64, len(runB.arr))
	for _, a := range runB.arr {
		if old, ok := recv[a.id]; !ok || a.recv < old {
			recv[a.id] = a.recv
		}
	}
	traceLayers(res, recs, recv, runB.elapsed, env.set)
	queueDeltas(res, before, after)
	coreLayers(res, env.set)
	openStages(res, recs, runB)
	if err := wireLayers(res, env.set, classes); err != nil {
		return nil, err
	}
	if err := queueLayers(res, env.set, env.sched.which); err != nil {
		return nil, err
	}

	m := res.metrics
	p50A, p50B := quantile(latA, 0.5), quantile(latB, 0.5)
	m["jobtrace.overhead_frac"] = p50B/p50A - 1
	m["load.jobs_per_s"] = float64(goodA) / runA.elapsed.Seconds()
	m["load.request_p50_ms"] = p50A
	m["load.request_p90_ms"] = quantile(latA, 0.9)
	m["load.request_p99_ms"] = quantile(latA, 0.99)
	m["load.late_p99_ms"] = quantile(lateness, 0.99)
	m["load.late_max_ms"] = quantile(lateness, 1)
	m["load.failed_frac"] = perJob(float64(res.failed), res.attempted)
	res.notef("untraced job p50 %.3f ms, traced %.3f ms", p50A, p50B)
	return res, nil
}

// stageResidualBound is the share of the executed jobs' median latency by
// which the per-stage medians may miss it when summed; medians of parts
// need not add up to the median of the whole, so this is a stated
// tolerance, not an identity.
const stageResidualBound = 0.25

// openStages splits each executed job's latency from its due time into
// due → submit (load and HTTP ingress), submit → start (queue wait),
// start → finish (run) and finish → client (completion, settle, encode
// and flush), and reports how far the stage medians' sum is from the
// median whole. The HTTP layer's self time is what the client waited
// beyond the queue's submit → finish. Jobs whose id two arrivals share
// (coalesced) are left out: the record cannot say which arrival it
// answers.
func openStages(res *result, recs []jobtrace.Record, run *openRun) {
	byID := make(map[uint64]int, len(run.arr))
	for i, a := range run.arr {
		if _, dup := byID[a.id]; dup {
			byID[a.id] = -1
			continue
		}
		byID[a.id] = i
	}
	var dueSubmit, wait, runMS, toClient, total, httpUS []float64
	for _, r := range recs {
		i, ok := byID[r.ID]
		if !r.Executed() || !ok || i < 0 || r.FinishNS == 0 {
			continue
		}
		a := run.arr[i]
		dueSubmit = append(dueSubmit, float64(r.SubmitNS-a.due)/1e6)
		wait = append(wait, float64(r.StartNS-r.SubmitNS)/1e6)
		runMS = append(runMS, float64(r.FinishNS-r.StartNS)/1e6)
		toClient = append(toClient, float64(a.recv-r.FinishNS)/1e6)
		total = append(total, float64(a.recv-a.due)/1e6)
		httpUS = append(httpUS, float64((a.recv-a.sent)-(r.FinishNS-r.SubmitNS))/1e3)
	}
	sum := median(dueSubmit) + median(wait) + median(runMS) + median(toClient)
	whole := median(total)
	residual := 0.0
	if whole > 0 {
		residual = math.Abs(sum-whole) / whole
	}
	res.metrics["jobtrace.due_to_submit_p50_ms"] = median(dueSubmit)
	res.metrics["jobtrace.stage_residual_frac"] = residual
	res.metrics["lopramhttp.self_us_per_job"] = median(httpUS)
	verdict := "within"
	if residual > stageResidualBound {
		verdict = "OUTSIDE"
	}
	res.notef("stages of %d executed jobs: due→submit %.3f + submit→start %.3f + start→finish %.3f + finish→client %.3f = %.3f ms vs p50 %.3f ms: residual %.1f%%, %s the stated %.0f%%",
		len(total), median(dueSubmit), median(wait), median(runMS), median(toClient), sum, whole, residual*100, verdict, stageResidualBound*100)
}

// ---- palrt-sort ----

func palrtSort(seed uint64, d time.Duration, trace bool) (*result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := newResult(defs)
	in, setupCPU, setupWall, err := timedSetup(func() (*sortInputs, error) { return newSortInputs(seed), nil }, func(*sortInputs) {})
	if err != nil {
		return nil, err
	}
	run := runSort(in, d, trace)
	res.tally(run.attempted, run.failed)
	palrtX, hostX, measurable := run.speedups()
	tN := median(run.engine[nproc])
	if measurable {
		res.notef("sort_speedup %.3f at p=%d against a host control of %.3f: sort_efficiency %.3f",
			palrtX, nproc, hostX, palrtX/hostX)
	} else {
		res.notef("sort_speedup and sort_efficiency not measurable: the host control reached %.3f at p=%d, below %.2f (palrt read %.3f)",
			hostX, nproc, measurableSpeedup, palrtX)
	}
	m := res.metrics
	if !trace {
		reportCost(res, setupCPU, setupWall, run.usedN, len(run.engine[nproc]))
		res.notef("%d sorts at p=%d: p50 %.3f ms, p90 %.3f ms", len(run.engine[nproc]), nproc, tN, quantile(run.engine[nproc], 0.9))
		return res, nil
	}
	runsN := float64(max(len(run.engine[nproc]), 1))
	m["load.jobs_per_s"] = 1e3 / tN
	m["load.request_p50_ms"] = tN
	m["load.request_p90_ms"] = quantile(run.engine[nproc], 0.9)
	m["load.request_p99_ms"] = quantile(run.engine[nproc], 0.99)
	m["core.run_us.palrt"] = tN * 1e3
	m["core.input_ms"] = tN - median(run.mergeOnly[nproc])
	m["palrt.sort_ms_p1"] = median(run.mergeOnly[1])
	m["palrt.sort_ms_pN"] = median(run.mergeOnly[nproc])
	m["palrt.spawned"] = float64(run.sched.Spawned) / runsN
	m["palrt.stolen"] = float64(run.sched.Stolen) / runsN
	m["palrt.inlined"] = float64(run.sched.Inlined) / runsN
	m["palrt.host_speedup"] = hostX
	if measurable {
		m["palrt.sort_speedup"] = palrtX
		m["palrt.sort_efficiency"] = palrtX / hostX
		m["palrt.speedup_measurable"] = 1
	}
	m["load.failed_frac"] = perJob(float64(res.failed), res.attempted)
	return res, nil
}
