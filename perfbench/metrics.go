package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one reported figure and its unit, exactly as
// BENCHMARK.json lists it (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what running lopram costs, which is what a shared host
// lets a run measure steadily. Every workload reports every one, per job
// of its own kind: a job settled through a binary stream (stream-unique),
// a job submitted alone (interactive-open), a core.RunAlgorithm mergesort
// at p=nproc (palrt-sort). setup_s is CPU seconds, like cpu_us_per_job.
// Wall-clock figures are not among them: on a shared 2-vCPU host whose
// hypervisor takes up to a fifth of the CPU in bursts, palrt-sort's
// sorts per second fell 26% and stream-unique's jobs per second 17%
// between two sets of ten runs of the same code, and interactive-open's
// median latency moved by 15–27% of itself within a set, against a
// largest allowed bound of 25%. The traced run reports them as
// load.jobs_per_s and load.request_*, and every run prints them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_job", "us"},
	{"bytes_per_job", "B"},
}

// perLayer is what the traced run reports, named layer.metric after the
// lopram package whose public calls it times. A layer a workload does not
// reach reports 0; README.md maps each metric to the end-to-end figure it
// should move.
var perLayer = []metricDef{
	{"wire.spec_encode_ns", "ns"},
	{"wire.spec_decode_ns", "ns"},
	{"wire.result_encode_ns", "ns"},
	{"wire.result_decode_ns", "ns"},
	{"wire.codec_build_us", "us"},
	{"wire.bytes_per_spec", "B"},
	{"jobqueue.ingest_ns_per_job", "ns"},
	{"jobqueue.settle_us_per_job", "us"},
	{"jobqueue.mutex_wait_ms", "ms"},
	{"jobqueue.steals", "count"},
	{"jobqueue.submit_us", "us"},
	{"jobqueue.hit_rate", "frac"},
	{"jobqueue.coalesced", "count"},
	{"jobqueue.rejected", "count"},
	{"jobqueue.wait_p50_ms", "ms"},
	{"jobqueue.wait_p99_ms", "ms"},
	{"jobqueue.run_p50_ms", "ms"},
	{"jobqueue.run_p99_ms", "ms"},
	{"jobqueue.finish_to_client_p50_ms", "ms"},
	{"jobqueue.finish_to_client_p99_ms", "ms"},
	{"lopramhttp.self_us_per_job", "us"},
	{"core.run_us.pram", "us"},
	{"core.run_us.palrt", "us"},
	{"core.run_us.sim", "us"},
	{"core.engine_share", "frac"},
	{"core.input_ms", "ms"},
	{"palrt.sort_ms_p1", "ms"},
	{"palrt.sort_ms_pN", "ms"},
	{"palrt.spawned", "count"},
	{"palrt.stolen", "count"},
	{"palrt.inlined", "count"},
	{"palrt.host_speedup", "x"},
	{"palrt.sort_speedup", "x"},
	{"palrt.sort_efficiency", "frac"},
	{"palrt.speedup_measurable", "bool"},
	{"jobtrace.overhead_frac", "frac"},
	{"jobtrace.due_to_submit_p50_ms", "ms"},
	{"jobtrace.stage_residual_frac", "frac"},
	{"load.jobs_per_s", "1/s"},
	{"load.request_p50_ms", "ms"},
	{"load.request_p90_ms", "ms"},
	{"load.request_p99_ms", "ms"},
	{"load.late_p99_ms", "ms"},
	{"load.late_max_ms", "ms"},
	{"load.failed_frac", "frac"},
}

// result is one run's outcome: the correctness tally and the figures.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are human-readable lines for standard error, such as why a
	// speedup was not measurable.
	notes []string
}

func newResult(defs []metricDef) *result {
	r := &result{metrics: make(map[string]float64, len(defs))}
	for _, d := range defs {
		r.metrics[d.name] = 0
	}
	return r
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally adds a batch of checked outcomes.
func (r *result) tally(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// encode renders the result as the benchmark's final output line. It
// fails when the workload reported a name outside defs, left one out, or
// produced a value JSON cannot carry.
func (r *result) encode(defs []metricDef) ([]byte, error) {
	out := resultLine{
		Correct:   r.attempted > 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(r.metrics) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(r.metrics), len(defs))
	}
	return json.Marshal(out)
}
