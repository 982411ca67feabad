package serve

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
)

// soakEvents scales TestServeSoak beyond its -short default: `make soak`
// passes -soak-events to run the statistical tier for minutes instead of
// milliseconds. The invariants checked are identical at every scale.
var soakEvents = flag.Int("soak-events", 0, "total events the soak test pushes (0 = short default)")

// gpsAt builds a minimal valid GPS event at an absolute minute.
func gpsAt(min int) Event {
	return Event{Kind: KindGPS, TimeMin: min, VehicleID: min % 24}
}

// TestBackpressureDeterministic pins the admission contract without any
// concurrency: admission is atomic per batch against the bounded queue, a
// rejected batch leaves the queue untouched, and every admitted event is
// processed by drain.
func TestBackpressureDeterministic(t *testing.T) {
	const seed = 31
	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), 1, seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The driver is intentionally not started: admission must work (and
	// backpressure must be exact) independent of consumption.
	fill := make([]Event, 8)
	for i := range fill {
		fill[i] = gpsAt(i)
	}
	if err := srv.Enqueue(fill); err != nil {
		t.Fatalf("batch at exactly queue capacity rejected: %v", err)
	}
	if err := srv.Enqueue([]Event{gpsAt(99)}); !errors.Is(err, ErrBacklogged) {
		t.Fatalf("enqueue into a full queue = %v, want ErrBacklogged", err)
	}
	if got := srv.QueueDepth(); got != 8 {
		t.Fatalf("rejected batch changed queue depth: %d, want 8", got)
	}
	reg := srv.Registry()
	if v := reg.Counter("serve.ingest.rejected_batches").Value(); v != 1 {
		t.Fatalf("rejected_batches = %d, want 1", v)
	}
	if v := reg.Counter("serve.ingest.rejected_events").Value(); v != 1 {
		t.Fatalf("rejected_events = %d, want 1", v)
	}
	// Start and drain: the 8 admitted events must all be absorbed.
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := srv.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after drain = %d, want 0 (admitted events dropped)", got)
	}
	if v := reg.Counter("serve.ingest.gps").Value(); v != 8 {
		t.Fatalf("processed gps events = %d, want all 8 admitted", v)
	}
	if got, want := srv.Watermark(), 7; got != want {
		t.Fatalf("watermark = %d, want %d", got, want)
	}
}

// TestBackpressureHTTP pins the wire protocol: 202 on admission, 429 with a
// Retry-After hint on overload, 400 on malformed bodies, 503 after drain.
func TestBackpressureHTTP(t *testing.T) {
	const seed = 32
	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), 1, seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	ok := post(`{"kind":"gps","time_min":1,"vehicle_id":0}` + "\n" + `{"kind":"request","time_min":2,"region":3}`)
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("valid batch: %s, want 202", ok.Status)
	}
	over := post(`{"kind":"gps","time_min":3}` + "\n" + `{"kind":"gps","time_min":4}` + "\n" + `{"kind":"gps","time_min":5}`)
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow batch: %s, want 429", over.Status)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	bad := post(`{"kind":"warp","time_min":1}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: %s, want 400", bad.Status)
	}
	if v := srv.Registry().Counter("serve.ingest.bad_batches").Value(); v != 1 {
		t.Fatalf("bad_batches = %d, want 1", v)
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	gone := post(`{"kind":"gps","time_min":9}`)
	if gone.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after drain: %s, want 503", gone.Status)
	}
}

// TestDrainQueueMonotone: once drain has begun, admission is closed, so the
// queue depth can only shrink. A sampler races the drain and asserts every
// observation is <= the previous one.
func TestDrainQueueMonotone(t *testing.T) {
	const seed = 33
	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), 1, seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, QueueCap: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]Event, 4096)
	for i := range fill {
		fill[i] = gpsAt(i % 50)
	}
	if err := srv.Enqueue(fill); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	done := make(chan struct{})
	var violation error
	go func() {
		defer close(done)
		prev := srv.QueueDepth()
		for !srv.Draining() {
			// Wait for the drain to begin; depth may bounce before that if
			// another test pattern enqueued, but here nothing else does.
			time.Sleep(50 * time.Microsecond)
		}
		for srv.QueueDepth() > 0 {
			d := srv.QueueDepth()
			if d > prev {
				violation = fmt.Errorf("queue depth grew during drain: %d -> %d", prev, d)
				return
			}
			prev = d
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
	if violation != nil {
		t.Fatal(violation)
	}
	if got := srv.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", got)
	}
}

// TestServeSoak is the statistical tier: many producers hammer a deliberately
// tiny queue through the full HTTP stack. The accounting invariants must hold
// exactly whatever the interleaving:
//
//	accepted + rejected == sent            (every batch resolves one way)
//	processed == accepted                  (no admitted event is dropped)
//	queue empty after drain
//
// In -short mode (make ci) it pushes a few thousand events; `make soak`
// raises -soak-events for a longer run with the identical invariants.
func TestServeSoak(t *testing.T) {
	const seed = 34
	total := 3 * 1024
	if *soakEvents > 0 {
		total = *soakEvents
	} else if testing.Short() {
		total = 1024
	}
	const producers, batchSize = 8, 16
	perProducer := total / producers / batchSize // batches per producer

	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), 1, seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mu sync.Mutex
	var accepted, rejected, sent int
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < perProducer; b++ {
				var buf bytes.Buffer
				for i := 0; i < batchSize; i++ {
					fmt.Fprintf(&buf, `{"kind":"gps","time_min":%d,"vehicle_id":%d}`+"\n", (p*perProducer+b)%120, i%24)
				}
				resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				mu.Lock()
				sent += batchSize
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted += batchSize
				case http.StatusTooManyRequests:
					rejected += batchSize
				default:
					t.Errorf("unexpected ingest status %s", resp.Status)
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	if accepted+rejected != sent {
		t.Fatalf("accounting leak: accepted %d + rejected %d != sent %d", accepted, rejected, sent)
	}
	reg := srv.Registry()
	if v := reg.Counter("serve.ingest.events").Value(); v != int64(accepted) {
		t.Fatalf("server admitted %d events, clients saw %d accepted", v, accepted)
	}
	if v := reg.Counter("serve.ingest.rejected_events").Value(); v != int64(rejected) {
		t.Fatalf("server rejected %d events, clients saw %d rejected", v, rejected)
	}
	processed := reg.Counter("serve.ingest.gps").Value() + reg.Counter("serve.ingest.requests").Value()
	if processed != int64(accepted) {
		t.Fatalf("processed %d events, admitted %d — admitted events were dropped", processed, accepted)
	}
	if got := srv.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", got)
	}
	t.Logf("soak: sent %d, accepted %d, rejected %d (%.1f%% backpressure)",
		sent, accepted, rejected, 100*float64(rejected)/float64(sent))
}
