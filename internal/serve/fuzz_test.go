package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synth"
)

// fuzzSrv is one shared server per fuzz worker process: the target exercises
// the full HTTP ingest path (body limits, NDJSON parsing, batch admission,
// watermark absorption) against a live driver, so crashes anywhere in that
// stack surface as fuzz failures.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzMux  http.Handler
)

func fuzzServer() (*Server, http.Handler) {
	fuzzOnce.Do(func() {
		city, err := synth.Build(synth.MicroConfig(1234))
		if err != nil {
			panic(err)
		}
		env := sim.New(city, sim.DefaultOptions(1), 1, 1234)
		fuzzSrv, err = New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: 1234, QueueCap: 1 << 16})
		if err != nil {
			panic(err)
		}
		fuzzSrv.Start()
		fuzzMux = fuzzSrv.Handler()
	})
	return fuzzSrv, fuzzMux
}

// FuzzHTTPIngest throws arbitrary bodies — malformed JSON, truncated
// batches, out-of-order and negative timestamps, unknown fields, oversized
// lines — at POST /ingest and checks the protocol invariants:
//
//   - the handler never panics and always answers one of its documented
//     statuses (202, 400, 413, 429, 503)
//   - a 202 implies the body was a valid batch (ParseBatch agrees)
//   - an invalid batch is never admitted: ParseBatch failure implies 400/413
//   - every response body is valid JSON
//   - the server's watermark never decreases (out-of-order input is legal
//     and folded into a high-watermark)
func FuzzHTTPIngest(f *testing.F) {
	f.Add([]byte(`{"kind":"gps","time_min":10,"vehicle_id":3,"lng":114.1,"lat":22.6,"speed_kmh":30,"occupied":true}`))
	f.Add([]byte(`{"kind":"request","time_min":7,"region":4}`))
	f.Add([]byte(`{"kind":"gps","time_min":50,"vehicle_id":1}` + "\n" + `{"kind":"request","time_min":3,"region":0}`))
	f.Add([]byte("\n\n{\"kind\":\"gps\",\"time_min\":1}\n\n"))
	f.Add([]byte(`{"kind":"gps","time_min":1,"vehicle_id"`)) // truncated mid-key
	f.Add([]byte(`{"kind":"warp","time_min":1}`))
	f.Add([]byte(`{"kind":"gps","time_min":-5}`))
	f.Add([]byte(`{"kind":"request","time_min":2,"region":-1}`))
	f.Add([]byte(`{"kind":"gps","time_min":1} trailing garbage`))
	f.Add([]byte(`{"kind":"gps","time_min":1,"bogus_field":9}`))
	f.Add([]byte(`{"kind":"gps","time_min":99999999999999999999}`)) // number overflow
	f.Add([]byte(`[{"kind":"gps","time_min":1}]`))                  // array, not NDJSON
	f.Add([]byte{0xff, 0xfe, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, mux := fuzzServer()
		before := srv.Watermark()
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)

		code := rec.Code
		switch code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("undocumented status %d for body %q", code, body)
		}
		_, parseErr := ParseBatch(body, DefaultMaxBatch)
		if code == http.StatusAccepted && parseErr != nil {
			t.Fatalf("admitted a batch ParseBatch rejects (%v): %q", parseErr, body)
		}
		if parseErr != nil && code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
			t.Fatalf("invalid batch (%v) answered %d, want 400/413: %q", parseErr, code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("response body is not JSON: %q", rec.Body.Bytes())
		}
		if after := srv.Watermark(); after < before {
			t.Fatalf("watermark went backwards: %d -> %d", before, after)
		}
	})
}

// FuzzParseBatch round-trips: any batch ParseBatch accepts must re-encode
// via EncodeBatch and parse again to the same events — the decode side of
// the client/server wire contract.
func FuzzParseBatch(f *testing.F) {
	f.Add([]byte(`{"kind":"gps","time_min":10,"vehicle_id":3}`))
	f.Add([]byte(`{"kind":"request","time_min":7,"region":4}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		events, err := ParseBatch(body, 64)
		if err != nil {
			return
		}
		enc, err := EncodeBatch(events)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		again, err := ParseBatch(enc, 64)
		if err != nil {
			t.Fatalf("re-encoded batch failed to parse: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed batch size: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("event %d changed in round trip: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}
