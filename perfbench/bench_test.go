package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json these tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefinitionsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2e, layers []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, benchmark defines %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, benchmark defines %v", layers, perLayer)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads in BENCHMARK.json = %v, benchmark runs %v", names, workloadNames())
	}
}

// runLine runs a workload briefly and parses the line it would print.
func runLine(t *testing.T, name string, seed uint64, trace bool) resultLine {
	t.Helper()
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res, err := workloads[name](seed, 400*time.Millisecond, trace)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b, err := res.encode(defs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var line resultLine
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	return line
}

func metricNames(line resultLine) []string {
	var names []string
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	var e2e, layers []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range f.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			line := runLine(t, name, 1, trace)
			want := e2e
			if trace {
				want = layers
			}
			if got := metricNames(line); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v printed %v, BENCHMARK.json lists %v", name, trace, got, want)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, line.Correct, line.Attempted, line.Failed)
			}
		}
	}
}

func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	if reflect.DeepEqual(streamSpecs(1), streamSpecs(2)) {
		t.Error("stream-unique specs do not depend on the seed")
	}
	if !reflect.DeepEqual(streamSpecs(3), streamSpecs(3)) {
		t.Error("stream-unique specs differ for one seed")
	}
	a, b := newOpenSchedule(1, time.Second), newOpenSchedule(2, time.Second)
	if reflect.DeepEqual(a.specs, b.specs) || reflect.DeepEqual(a.due, b.due) {
		t.Error("interactive-open schedule does not depend on the seed")
	}
	if !reflect.DeepEqual(a, newOpenSchedule(1, time.Second)) {
		t.Error("interactive-open schedule differs for one seed")
	}
	if reflect.DeepEqual(newSortInputs(1).seeds, newSortInputs(2).seeds) {
		t.Error("palrt-sort inputs do not depend on the seed")
	}
	if testing.Short() {
		return
	}
	for _, trace := range []bool{false, true} {
		one, two := runLine(t, "palrt-sort", 1, trace), runLine(t, "palrt-sort", 2, trace)
		if !reflect.DeepEqual(metricNames(one), metricNames(two)) {
			t.Errorf("trace=%v: seed 1 printed %v, seed 2 printed %v", trace, metricNames(one), metricNames(two))
		}
	}
}

func TestCorruptedChecksumCountsAsFailure(t *testing.T) {
	set, err := newSpecSet(streamSpecs(1)[:2*streamBatch])
	if err != nil {
		t.Fatal(err)
	}
	set.refs[0].Check ^= 1
	srv, err := startServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(srv)

	// Each connection sends one request; spec 0 is in at most one
	// request per connection.
	run, err := runStream(srv, set, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if run.failed < 1 || run.failed > nproc {
		t.Errorf("stream: %d of %d failed, want the corrupted spec's 1..%d", run.failed, run.attempted, nproc)
	}

	body, err := specBodies(set.specs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := submitWait(srv, body[0], set.refs[0]); ok {
		t.Error("single submit: corrupted reference accepted")
	}
	if _, ok := submitWait(srv, body[1], set.refs[1]); !ok {
		t.Error("single submit: correct result rejected")
	}

	in := newSortInputs(1)
	for i := range in.checks {
		in.checks[i] ^= 1
	}
	sorted := runSort(in, time.Nanosecond, false)
	if sorted.attempted == 0 || sorted.failed != sorted.attempted {
		t.Errorf("palrt-sort: %d of %d failed, want all", sorted.failed, sorted.attempted)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}
