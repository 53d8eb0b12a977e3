package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
	"lopram/internal/jobtrace"
	"lopram/internal/wire"
)

// traceLayers derives the jobqueue and core figures of a traced window
// from the recorder's records. recv maps a job id to the Unix ns the
// load received its result; wall is the window's length.
func traceLayers(res *result, recs []jobtrace.Record, recv map[uint64]int64, wall time.Duration, set *specSet) {
	var executed, served, coalesced, rejected int
	var waits, runs, toClient []float64
	var runTotal, engineUS float64
	meanUS := map[string]float64{}
	for e, us := range set.runUS {
		total := 0.0
		for _, u := range us {
			total += u
		}
		meanUS[string(e)] = total / float64(len(us))
	}
	var sched jobtrace.SchedCounters
	var palrtRuns int
	for _, r := range recs {
		switch r.Disposition {
		case jobtrace.DispositionRejected:
			rejected++
			continue
		case jobtrace.DispositionCoalesce:
			coalesced++
		}
		if r.Dup() {
			served++
			continue
		}
		executed++
		waits = append(waits, r.WaitMS)
		runs = append(runs, r.RunMS)
		runTotal += r.RunMS
		engineUS += meanUS[r.Engine]
		if ns, ok := recv[r.ID]; ok && r.FinishNS > 0 {
			toClient = append(toClient, float64(ns-r.FinishNS)/1e6)
		}
		if r.Sched != nil {
			palrtRuns++
			sched.Spawned += r.Sched.Spawned
			sched.Stolen += r.Sched.Stolen
			sched.Inlined += r.Sched.Inlined
		}
	}
	m := res.metrics
	if executed+served > 0 {
		m["jobqueue.hit_rate"] = float64(served) / float64(executed+served)
	}
	m["jobqueue.coalesced"] = float64(coalesced)
	m["jobqueue.rejected"] = float64(rejected)
	m["jobqueue.wait_p50_ms"] = quantile(waits, 0.5)
	m["jobqueue.wait_p99_ms"] = quantile(waits, 0.99)
	m["jobqueue.run_p50_ms"] = quantile(runs, 0.5)
	m["jobqueue.run_p99_ms"] = quantile(runs, 0.99)
	m["jobqueue.finish_to_client_p50_ms"] = quantile(toClient, 0.5)
	m["jobqueue.finish_to_client_p99_ms"] = quantile(toClient, 0.99)
	// Engine time over the time the workers had. Each executed job is
	// charged its engine's mean serial RunAlgorithm time on this
	// workload's specs; the recorder's run spans also hold the queue's
	// own run-path work, so their share is printed beside it.
	workerS := wall.Seconds() * float64(nproc)
	m["core.engine_share"] = engineUS / 1e6 / workerS
	if palrtRuns > 0 {
		m["palrt.spawned"] = float64(sched.Spawned) / float64(palrtRuns)
		m["palrt.stolen"] = float64(sched.Stolen) / float64(palrtRuns)
		m["palrt.inlined"] = float64(sched.Inlined) / float64(palrtRuns)
	}
	res.notef("trace: %d records, %d executed, %d served from cache or coalesced, %d rejected; run spans fill %.1f%% of worker time",
		len(recs), executed, served, rejected, 100*runTotal/1e3/workerS)
}

// queueDeltas reports the lock wait and steals between two snapshots.
func queueDeltas(res *result, before, after jobqueue.Metrics) {
	res.metrics["jobqueue.mutex_wait_ms"] = (after.RuntimeMutexWaitSeconds - before.RuntimeMutexWaitSeconds) * 1e3
	res.metrics["jobqueue.steals"] = float64(after.Steals - before.Steals)
}

// coreLayers reports the serial RunAlgorithm time per engine over the
// workload's distinct specs, measured while computing the references.
func coreLayers(res *result, set *specSet) {
	for _, e := range []core.Engine{core.EnginePRAM, core.EnginePalrt, core.EngineSim} {
		res.metrics["core.run_us."+string(e)] = median(set.runUS[e])
	}
}

// timeLoop runs f over n items, repeating the pass until at least 20ms
// have gone by, and returns the mean ns per item.
func timeLoop(n int, f func(i int)) float64 {
	reps := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		reps++
	}
	return float64(time.Since(start)) / float64(reps*n)
}

// wireLayers times the binary codec's public calls on the workload's
// distinct specs and their reference results, then checks that every
// frame decodes to what was encoded; one that does not is a failure.
func wireLayers(res *result, set *specSet, classes jobqueue.ClassSet) error {
	n := min(len(set.specs), 4096)
	codec := wire.NewCodec(classes)
	m := res.metrics

	var specBuf, resultBuf []byte
	var err error
	m["wire.spec_encode_ns"] = timeLoop(n, func(i int) {
		if i == 0 {
			specBuf = specBuf[:0]
		}
		if err == nil {
			specBuf, err = codec.AppendSpec(specBuf, &set.specs[i])
		}
	})
	if err != nil {
		return fmt.Errorf("encoding a spec frame: %w", err)
	}
	m["wire.bytes_per_spec"] = float64(len(specBuf)) / float64(n)
	m["wire.result_encode_ns"] = timeLoop(n, func(i int) {
		if i == 0 {
			resultBuf = resultBuf[:0]
		}
		resultBuf = wire.AppendResult(resultBuf, i, uint64(i+1), jobqueue.Result{Outcome: set.refs[i]})
	})
	specFrames, err := splitFrames(specBuf, n)
	if err != nil {
		return err
	}
	resultFrames, err := splitFrames(resultBuf, n)
	if err != nil {
		return err
	}

	var spec jobqueue.Spec
	var out wire.Result
	m["wire.spec_decode_ns"] = timeLoop(n, func(i int) { _ = codec.DecodeSpec(specFrames[i], &spec) })
	m["wire.result_decode_ns"] = timeLoop(n, func(i int) { _ = codec.DecodeResult(resultFrames[i], &out) })
	m["wire.codec_build_us"] = timeLoop(1, func(int) { codec = wire.NewCodec(classes) }) / 1e3

	bad := 0
	for i := 0; i < n; i++ {
		if codec.DecodeSpec(specFrames[i], &spec) != nil || spec != set.specs[i] {
			bad++
		}
		if codec.DecodeResult(resultFrames[i], &out) != nil || !out.Done || !sameOutcome(out.Res.Outcome, set.refs[i]) {
			bad++
		}
	}
	res.tally(2*n, bad)
	return nil
}

// splitFrames copies the payloads of n frames out of an encoded buffer.
func splitFrames(b []byte, n int) ([][]byte, error) {
	br := bufio.NewReaderSize(bytes.NewReader(b), wire.MaxFramePayload+16)
	frames := make([][]byte, n)
	for i := range frames {
		_, payload, err := wire.ReadFrame(br)
		if err != nil {
			return nil, fmt.Errorf("reading back frame %d: %w", i, err)
		}
		frames[i] = append([]byte(nil), payload...)
	}
	return frames, nil
}

// queueLayers times jobqueue's two submit paths on a fresh queue with
// lopramd's configuration: Batch.Submit and Batch.Wait over batches of
// streamBatch specs, then Queue.Submit one spec at a time. order lists
// the specs to submit, as indices into set, in the workload's order.
func queueLayers(res *result, set *specSet, order []int) error {
	q := jobqueue.New(queueConfig(nil))
	defer q.Close()
	ctx := context.Background()
	const batches = 32
	var ingest, settle []float64
	next := 0
	take := func() int {
		k := order[next%len(order)]
		next++
		return k
	}
	idx := make([]int, streamBatch)
	for b := 0; b < batches; b++ {
		batch := q.NewBatch()
		t0 := time.Now()
		for j := range idx {
			idx[j] = take()
			// Refusals come back through Outcome and are checked there.
			_ = batch.Submit(set.specs[idx[j]])
		}
		t1 := time.Now()
		if err := batch.Wait(ctx); err != nil {
			return fmt.Errorf("batch wait: %w", err)
		}
		t2 := time.Now()
		bad := 0
		for j, k := range idx {
			out, err := batch.Outcome(j)
			if err != nil || !sameOutcome(out.Outcome, set.refs[k]) {
				bad++
			}
		}
		batch.Release()
		res.tally(len(idx), bad)
		ingest = append(ingest, float64(t1.Sub(t0))/float64(len(idx)))
		settle = append(settle, float64(t2.Sub(t1))/1e3/float64(len(idx)))
	}
	res.metrics["jobqueue.ingest_ns_per_job"] = median(ingest)
	res.metrics["jobqueue.settle_us_per_job"] = median(settle)

	// Queue.Submit in groups no larger than one admission lane, waiting
	// for each group, so no submission is refused for a full queue.
	var submit []float64
	jobs := make([]*jobqueue.Job, streamBatch)
	for g := 0; g < 8; g++ {
		for j := range idx {
			idx[j] = take()
			t := time.Now()
			job, err := q.Submit(set.specs[idx[j]])
			submit = append(submit, float64(time.Since(t))/1e3)
			if err != nil {
				return fmt.Errorf("submit: %w", err)
			}
			jobs[j] = job
		}
		bad := 0
		for j, job := range jobs {
			out, err := job.Wait(ctx)
			if err != nil || !sameOutcome(out.Outcome, set.refs[idx[j]]) {
				bad++
			}
		}
		res.tally(len(jobs), bad)
	}
	res.metrics["jobqueue.submit_us"] = median(submit)
	return nil
}
