package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lopram/internal/core"
	"lopram/internal/jobqueue"
)

// arrival is what the load saw of one scheduled job, in Unix ns.
type arrival struct {
	due, sent, recv int64
	id              uint64
	ok              bool
}

// openRun is one pass over interactive-open's schedule.
type openRun struct {
	elapsed time.Duration
	used    cost
	arr     []arrival
}

// jobView is the part of a POST /v1/jobs?wait=1 reply the load checks.
type jobView struct {
	ID     uint64           `json:"id"`
	Status string           `json:"status"`
	Result *jobqueue.Result `json:"result"`
	Error  string           `json:"error"`
}

// runOpen replays the schedule as an open loop: nproc load goroutines
// take arrivals in order, each sleeping until its arrival is due, so when
// every connection is busy the next arrival is sent late and the lateness
// counts in its latency. bodies holds each distinct spec's JSON.
func runOpen(s *server, sched *openSchedule, set *specSet, bodies [][]byte) *openRun {
	run := &openRun{arr: make([]arrival, len(sched.due))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	before := readCost()
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched.due) {
					return
				}
				due := start.Add(sched.due[i])
				sleepUntil(due)
				a := &run.arr[i]
				a.due = due.UnixNano()
				a.sent = time.Now().UnixNano()
				k := sched.which[i]
				a.id, a.ok = submitWait(s, bodies[k], set.refs[k])
				a.recv = time.Now().UnixNano()
			}
		}()
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	run.used = readCost().since(before)
	return run
}

// submitWait sends one spec as POST /v1/jobs?wait=1 and reports the job
// id and whether the job settled with the reference outcome.
func submitWait(s *server, body []byte, ref core.Outcome) (uint64, bool) {
	resp, err := s.httpc.Post(s.base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "submit: %v\n", err)
		return 0, false
	}
	defer resp.Body.Close()
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	// Drain so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "submit: HTTP %d: %v %s\n", resp.StatusCode, err, v.Error)
		return v.ID, false
	}
	return v.ID, v.Status == "done" && v.Result != nil && sameOutcome(v.Result.Outcome, ref)
}

// specBodies encodes every distinct spec once, during set-up, so the load
// spends no time in JSON encoding.
func specBodies(specs []jobqueue.Spec) ([][]byte, error) {
	bodies := make([][]byte, len(specs))
	for i := range specs {
		b, err := json.Marshal(&specs[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}
