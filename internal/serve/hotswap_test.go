package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The hot-swap battery: reloads install atomically between slots, every
// corruption mode fails closed with the old policy still serving, and
// concurrent reloads under ingest load are race-free (run under `make race`).

// fairmoveReload is the production ReloadFunc shape: build a fresh learner,
// decode the checkpoint into it, never touch the serving policy.
func fairmoveReload(alpha float64, seed int64) ReloadFunc {
	return func(path string) (policy.Policy, error) {
		fm, err := core.New(core.DefaultConfig(alpha, seed))
		if err != nil {
			return nil, err
		}
		if _, err := checkpoint.ReadFile(path, fm); err != nil {
			return nil, err
		}
		return fm, nil
	}
}

// writeFairMoveCheckpoint writes an (untrained) FairMove checkpoint — swap
// validity is about container integrity, not training quality.
func writeFairMoveCheckpoint(t *testing.T, dir, name string, alpha float64, seed int64) string {
	t.Helper()
	fm, err := core.New(core.DefaultConfig(alpha, seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := checkpoint.WriteFile(path, fm); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t *testing.T, seed int64, reload ReloadFunc) *Server {
	t.Helper()
	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), 1, seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, Reload: reload})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestHotSwapInstallsValidatedPolicy(t *testing.T) {
	const seed = 21
	dir := t.TempDir()
	good := writeFairMoveCheckpoint(t, dir, "good.fmck", 0.6, seed)
	srv := newTestServer(t, seed, fairmoveReload(0.6, seed))
	srv.Start()
	ctx := context.Background()
	if _, err := srv.StepSlots(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := srv.PolicyName(); got != "GT" {
		t.Fatalf("serving %q before swap, want GT", got)
	}
	if err := srv.Reload(ctx, good); err != nil {
		t.Fatalf("reload of a valid checkpoint failed: %v", err)
	}
	if got := srv.PolicyName(); got != "FairMove" {
		t.Fatalf("serving %q after swap, want FairMove", got)
	}
	// The swapped-in policy must actually serve the next slots.
	if n, err := srv.StepSlots(ctx, 2); err != nil || n != 2 {
		t.Fatalf("post-swap StepSlots = %d, %v", n, err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if v := srv.Registry().Counter("serve.reload.ok").Value(); v != 1 {
		t.Fatalf("serve.reload.ok = %d, want 1", v)
	}
}

// TestHotSwapFailsClosed covers the corruption modes: a byte-flipped
// container, a truncated file, a fingerprint forgery (valid container sealed
// for different hyperparameters), and a missing file. Every one must be
// rejected with the matching sentinel and leave the old policy serving.
func TestHotSwapFailsClosed(t *testing.T) {
	const seed = 22
	dir := t.TempDir()
	good := writeFairMoveCheckpoint(t, dir, "good.fmck", 0.6, seed)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := filepath.Join(dir, "corrupt.fmck")
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(corrupt, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	truncated := filepath.Join(dir, "truncated.fmck")
	if err := os.WriteFile(truncated, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	// A checkpoint sealed under different hyperparameters (alpha) carries a
	// different fingerprint: structurally valid, semantically wrong.
	forged := writeFairMoveCheckpoint(t, dir, "forged.fmck", 0.25, seed)

	srv := newTestServer(t, seed, fairmoveReload(0.6, seed))
	srv.Start()
	ctx := context.Background()

	cases := []struct {
		name string
		path string
		want error
	}{
		{"byte flip", corrupt, nil}, // any error is acceptable; digest or payload
		{"truncated", truncated, checkpoint.ErrTruncated},
		{"fingerprint forgery", forged, checkpoint.ErrFingerprint},
		{"missing file", filepath.Join(dir, "nope.fmck"), nil},
	}
	for _, tc := range cases {
		err := srv.Reload(ctx, tc.path)
		if err == nil {
			t.Fatalf("%s: reload succeeded, must fail closed", tc.name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if got := srv.PolicyName(); got != "GT" {
			t.Fatalf("%s: old policy replaced (serving %q) despite failed reload", tc.name, got)
		}
		// The server must keep serving decisions after each failure.
		if n, err := srv.StepSlots(ctx, 1); err != nil || n != 1 {
			t.Fatalf("%s: server wedged after failed reload: %d, %v", tc.name, n, err)
		}
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if v := srv.Registry().Counter("serve.reload.failed").Value(); v != int64(len(cases)) {
		t.Fatalf("serve.reload.failed = %d, want %d", v, len(cases))
	}
	if v := srv.Registry().Counter("serve.reload.ok").Value(); v != 0 {
		t.Fatalf("serve.reload.ok = %d, want 0", v)
	}
}

// TestHotSwapConcurrent hammers reload (valid and corrupt alternating) from
// several goroutines while ingest and stepping continue — the race-detector
// tier of the battery. Invariants: the server never wedges, every reload
// resolves, and ok+failed matches attempts.
func TestHotSwapConcurrent(t *testing.T) {
	const seed = 23
	dir := t.TempDir()
	good := writeFairMoveCheckpoint(t, dir, "good.fmck", 0.6, seed)
	bad := filepath.Join(dir, "bad.fmck")
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x01
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	city := microCity(t, seed)
	env := sim.New(city, sim.DefaultOptions(1), 1, seed)
	srv, err := New(Config{Env: env, Policy: policy.NewGroundTruth(), Seed: seed, Reload: fairmoveReload(0.6, seed)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	feed := RecordFeed(city, sim.DefaultOptions(1), seed, 8)
	const reloaders, attempts = 4, 8
	var wg sync.WaitGroup
	var okCount, failCount int64
	var cntMu sync.Mutex
	for g := 0; g < reloaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				path := good
				if (g+i)%2 == 1 {
					path = bad
				}
				err := srv.Reload(ctx, path)
				cntMu.Lock()
				if err != nil {
					failCount++
				} else {
					okCount++
				}
				cntMu.Unlock()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(feed); i += 64 {
			end := i + 64
			if end > len(feed) {
				end = len(feed)
			}
			if err := srv.Enqueue(feed[i:end]); err != nil {
				return // draining or backlogged: load is best-effort here
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := srv.StepSlots(ctx, 1); err != nil {
				return
			}
		}
	}()
	wg.Wait()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if okCount+failCount != reloaders*attempts {
		t.Fatalf("reloads resolved %d+%d, want %d", okCount, failCount, reloaders*attempts)
	}
	if okCount == 0 {
		t.Fatal("no valid reload succeeded under load")
	}
	reg := srv.Registry()
	gotOK := reg.Counter("serve.reload.ok").Value()
	gotFail := reg.Counter("serve.reload.failed").Value()
	if gotOK != okCount || gotFail != failCount {
		t.Fatalf("counters ok=%d failed=%d, callers saw ok=%d failed=%d", gotOK, gotFail, okCount, failCount)
	}
}

// TestReloadDuringDrainRefused: once drain begins, reloads answer
// ErrDraining and the drain still completes.
func TestReloadDuringDrainRefused(t *testing.T) {
	const seed = 24
	dir := t.TempDir()
	good := writeFairMoveCheckpoint(t, dir, "good.fmck", 0.6, seed)
	srv := newTestServer(t, seed, fairmoveReload(0.6, seed))
	srv.Start()
	ctx := context.Background()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(ctx, good); !errors.Is(err, ErrDraining) {
		t.Fatalf("reload during drain = %v, want ErrDraining", err)
	}
}
