package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}} {
		got, err := quantile(append([]float64(nil), xs...), c.q)
		if err != nil || got != c.want {
			t.Errorf("p%v = %v, %v; want %v", c.q*100, got, err, c.want)
		}
	}
	// p90 of 99 samples would have only 9 beyond it.
	if _, err := quantile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples: want an error")
	}
	if _, err := quantile(make([]float64, 999), 0.99); err == nil {
		t.Error("p99 of 999 samples: want an error")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root: clipped
		{Name: "d", Start: 25, End: 28, Parent: 2},  // grandchild: b's, not root's
		{Name: "open", Start: 60, End: -1, Parent: 0},
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 20, 27, 30, 3, 0}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], w)
		}
	}
	if got := coverage(spans, 0); got != 0.5 {
		t.Errorf("coverage(root) = %v, want 0.5", got)
	}
	if got := selfByName(append(spans, span{Name: "a", Start: 0, End: 5, Parent: -1}))["a"]; got != 25 {
		t.Errorf("self by name a = %d, want 25", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", -1, -1)
	child := tr.begin("child", root, 3)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != 0 || s[1].Slot != 3 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

func TestProfileShareByPrefix(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/nn.gemmNT", "repro/internal/nn.(*MLP).ForwardBatch",
		"repro/internal/policy.(*Runner).StepSlot", "repro/internal/demand.(*Model).Rate"}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		prof.bytes(1, m.b)
	}
	// Functions 1..4 name strings 5..8.
	for id := uint64(1); id <= 4; id++ {
		var f pb
		f.varint(1, id)
		f.varint(2, id+4)
		prof.bytes(5, f.b)
	}
	// Location 1: gemmNT inlined into ForwardBatch (innermost first).
	// Location 2: StepSlot. Location 3: demand Rate.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}, {3, []uint64{4}}} {
		var l pb
		l.varint(1, loc.id)
		for _, fn := range loc.fns {
			var line pb
			line.varint(1, fn)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	// Samples: 60ns in gemm (under ForwardBatch, under StepSlot), packed;
	// 30ns in Rate under StepSlot, unpacked; 10ns in StepSlot itself.
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 6, 60)
	prof.bytes(2, s1.b)
	var s2 pb
	s2.varint(1, 3)
	s2.varint(1, 2)
	s2.varint(2, 3)
	s2.varint(2, 30)
	prof.bytes(2, s2.b)
	var s3 pb
	s3.varint(1, 2)
	s3.varint(2, 1)
	s3.varint(2, 10)
	prof.bytes(2, s3.b)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	p, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	approx := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("nn self", p.share(false, "repro/internal/nn."), 0.6)
	approx("gemm self", p.share(false, "repro/internal/nn.gemm"), 0.6)
	approx("ForwardBatch self", p.share(false, "repro/internal/nn.(*MLP).ForwardBatch"), 0)
	approx("ForwardBatch cumulative", p.share(true, "repro/internal/nn.(*MLP).ForwardBatch"), 0.6)
	approx("StepSlot cumulative", p.share(true, "repro/internal/policy.(*Runner).StepSlot"), 1)
	approx("demand or nn self", p.share(false, "repro/internal/demand.", "repro/internal/nn."), 0.9)
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage profile: want an error")
	}
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	o := openLoop{start: t0, interval: 10 * time.Millisecond}
	if got := o.due(3); !got.Equal(t0.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// Request 1 stalls for 25ms: request 2 goes out 16ms late and request 3
	// 7ms late, and both latencies count that wait; request 4 is on time.
	at := func(msOff float64) time.Time { return t0.Add(time.Duration(msOff * float64(time.Millisecond))) }
	recs := []batchRec{
		{due: o.due(0), sent: at(0), done: at(1)},
		{due: o.due(1), sent: at(10), done: at(36)},
		{due: o.due(2), sent: at(36), done: at(37)},
		{due: o.due(3), sent: at(37), done: at(38)},
		{due: o.due(4), sent: at(40), done: at(41)},
	}
	lat, late := openLoopStats(recs)
	wantLat := []float64{1, 26, 17, 8, 1}
	wantLate := []float64{0, 0, 16, 7, 0}
	for i := range recs {
		if lat[i] != wantLat[i] || late[i] != wantLate[i] {
			t.Errorf("request %d: latency %v late %v; want %v, %v", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
}

// TestBenchmarkFileListsTheMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkFileListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

func TestSlotMediansDropOneNoisyRun(t *testing.T) {
	runs := [][]float64{
		{1, 2, 3, 4},
		{1, 9, 3, 4}, // slot 1 hit by noise in this run
		{1, 2, 3},    // cut short: slot 3 is not in every run
	}
	got := slotMedians(runs)
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("slotMedians = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slotMedians = %v, want %v", got, want)
		}
	}
	if runs[1][1] != 9 {
		t.Fatal("slotMedians reordered its input")
	}
}
