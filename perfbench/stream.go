package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"lopram/internal/jobqueue"
	"lopram/internal/wire"
)

// streamBatch is how many specs one binary POST /v1/jobs:stream request
// carries on stream-unique.
const streamBatch = 256

// streamRun is one closed-loop window of stream-unique: every connection
// sends its next request as soon as the previous one returns.
type streamRun struct {
	elapsed           time.Duration
	attempted, failed int
	// rtts are the request round trips in ms and recv the Unix ns each
	// reply arrived, in the same order.
	rtts []float64
	recv []int64
	used cost
	// ids are the queue ids of the jobs settled by each request, so a
	// traced run can join them with the recorder's records.
	ids [][]uint64
}

// runStream drives nproc binary stream connections for d, or for
// maxReq requests per connection when maxReq > 0. Connection c walks the
// spec pool from c/nproc of the way along, so no two connections submit
// one spec at the same time. keepIDs retains every settled job's id.
func runStream(s *server, set *specSet, d time.Duration, maxReq int, keepIDs bool) (*streamRun, error) {
	cl, err := wire.NewClient(s.httpc, s.base, wire.ProtoBinary, s.q.Classes())
	if err != nil {
		return nil, err
	}
	conns := make([]streamRun, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	before := readCost()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			streamConn(cl, set, c*len(set.specs)/nproc, deadline, maxReq, keepIDs, &conns[c])
		}(c)
	}
	wg.Wait()
	run := &streamRun{elapsed: time.Since(start), used: readCost().since(before)}
	for _, c := range conns {
		run.attempted += c.attempted
		run.failed += c.failed
		run.rtts = append(run.rtts, c.rtts...)
		run.recv = append(run.recv, c.recv...)
		run.ids = append(run.ids, c.ids...)
	}
	return run, nil
}

// streamConn is one connection's closed loop.
func streamConn(cl *wire.Client, set *specSet, cursor int, deadline time.Time, maxReq int, keepIDs bool, out *streamRun) {
	specs := make([]jobqueue.Spec, streamBatch)
	idx := make([]int, streamBatch)
	for n := 0; maxReq <= 0 || n < maxReq; n++ {
		if maxReq <= 0 && !time.Now().Before(deadline) {
			return
		}
		for j := range specs {
			idx[j] = cursor
			specs[j] = set.specs[cursor]
			cursor = (cursor + 1) % len(set.specs)
		}
		t0 := time.Now()
		results, err := cl.Stream(specs)
		t1 := time.Now()
		good, ids := checkStream(results, idx, set, keepIDs)
		if err != nil && out.failed == 0 {
			fmt.Fprintf(os.Stderr, "stream request failed: %v\n", err)
		}
		out.attempted += streamBatch
		out.failed += streamBatch - good
		out.rtts = append(out.rtts, ms(t1.Sub(t0)))
		out.recv = append(out.recv, t1.UnixNano())
		if keepIDs {
			out.ids = append(out.ids, ids)
		}
	}
}

// checkStream counts the results that settled with the reference
// outcome of the spec in their slot; a missing, failed or wrong result is
// not counted.
func checkStream(results []wire.Result, idx []int, set *specSet, keepIDs bool) (good int, ids []uint64) {
	seen := make([]bool, len(idx))
	for _, r := range results {
		if r.Index < 0 || r.Index >= len(idx) || seen[r.Index] {
			continue
		}
		seen[r.Index] = true
		if keepIDs {
			ids = append(ids, r.ID)
		}
		if r.Done && sameOutcome(r.Res.Outcome, set.refs[idx[r.Index]]) {
			good++
		}
	}
	return good, ids
}
