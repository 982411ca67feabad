package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	fairmove "repro"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// citySeed fixes the full-scale city the eval and serve workloads run in.
// Their workload seed draws the day's demand (the episode seed) in that one
// city, so runs with different seeds compare like with like: a different
// city layout would change the work per slot by several percent.
const citySeed = 42

// fullScaleConfig is the paper's fleet (20,130 taxis over 491 regions and
// 123 stations), sized exactly as `fairmove serve -fleet 20130` sizes it,
// on the region-sharded engine with Shards and Workers pinned to the two
// cores of the reference host.
func fullScaleConfig() fairmove.Config {
	cfg := fairmove.DefaultConfig(citySeed)
	cfg.Fleet = 20130
	cfg.Shards = 2
	cfg.Workers = 2
	return cfg
}

// evalBench is the eval-full-sd2 workload: SD2 (no NN at all) evaluated on
// the full-scale fleet through policy.Runner, so engine changes show here
// and NN changes should not.
type evalBench struct {
	seed int64 // episode seed: the demand realization
	sys  *fairmove.System
	env  sim.Environment

	// Ledger of every complete timed episode, for the determinism oracle.
	episodes []episodeLedger
}

// episodeLedger is the request accounting of one finished episode.
type episodeLedger struct{ generated, served, unserved, invalid int }

func setupEval(seed int64, _ int) (bench, error) {
	sys, err := fairmove.NewSystem(fullScaleConfig())
	if err != nil {
		return nil, err
	}
	return &evalBench{seed: seed, sys: sys, env: sys.EvalEnv()}, nil
}

// evalEpisodeSeconds is roughly one full-scale SD2 episode on the
// reference host; it turns --seconds into a fixed episode count, so every
// run does the same work whatever the host's speed at the moment.
const evalEpisodeSeconds = 2.7

// measure evaluates a fixed number of whole SD2 episodes, all with the
// run's seed, so every run covers the same mix of hours and every episode
// repeats the same work slot for slot. A slot's decision latency (decide
// plus engine step) is its median over the episodes, and the throughput is
// the slot rate those medians give: noise from outside the process that
// hits one episode's slot does not move either.
func (b *evalBench) measure(seconds int, ins *instruments) (*measurement, error) {
	m := &measurement{coverage: -1}
	var tr *tracer
	root := -1
	if ins != nil {
		tr, root = ins.tr, ins.root
		b.env.SetTelemetry(ins.reg)
		defer b.env.SetTelemetry(nil)
	}
	p := newProbe(tr, root)
	m.probe = p
	env := probeEnv{b.env, p}
	var runs [][]float64
	for n := max(2, int(float64(seconds)/evalEpisodeSeconds+0.5)); len(runs) < n; {
		var lat []float64
		r := policy.NewRunner(probePolicy{policy.NewSD2(), p}, env, b.seed)
		for !r.Done() {
			t := time.Now()
			r.StepSlot()
			lat = append(lat, ms(time.Since(t)))
		}
		runs = append(runs, lat)
		m.attempted += len(lat)
		b.episodes = append(b.episodes, ledgerOf(b.env))
	}
	m.decisionsMs = slotMedians(runs)
	m.slotsPerSec = float64(len(m.decisionsMs)) / (sumFloats(m.decisionsMs) / 1e3)
	m.allocOps = float64(m.attempted)
	return m, nil
}

func ledgerOf(env sim.Environment) episodeLedger {
	res := env.Results()
	l := episodeLedger{served: res.ServedRequests, unserved: res.UnservedRequests, invalid: env.InvalidActions()}
	if rl, ok := env.(requestLedger); ok {
		l.generated = rl.GeneratedRequests()
	}
	return l
}

// verify checks that every complete timed episode ended with the same
// request ledger, then replays the pinned reference seed with the trace
// recorder on: its event-stream digest must equal the pinned one, and at
// every slot boundary served + expired + pending must equal generated
// (allowing for the one-time ledger reset at the end of the warm-up day).
func (b *evalBench) verify() error {
	for i, l := range b.episodes {
		if l != b.episodes[0] {
			return fmt.Errorf("eval: episode %d ledger %+v differs from episode 0 %+v", i, l, b.episodes[0])
		}
	}
	pin, err := loadPins()
	if err != nil {
		return err
	}
	sys := b.sys
	var events []trace.Event
	sys.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
	env := sys.EvalEnv()
	sys.SetRecorder(nil)
	rl, ok := env.(requestLedger)
	if !ok {
		return fmt.Errorf("eval: engine %T keeps no request ledger", env)
	}
	opts := sys.EvalOptions()
	warmupSlot := opts.WarmupDays*24*60/sys.Config().SlotMinutes - 1
	h := sha256.New()
	r := policy.NewRunner(policy.NewSD2(), env, pin.Seed)
	var lost int // requests resolved in the warm-up slot the ledger reset drops
	for s := 0; s < pin.Eval.Slots && !r.Done(); s++ {
		r.StepSlot()
		if err := trace.EncodeEvents(h, events); err != nil {
			return err
		}
		events = events[:0]
		res := env.Results()
		gap := rl.GeneratedRequests() - res.ServedRequests - res.UnservedRequests - rl.PendingRequests()
		if s == warmupSlot {
			lost = gap
		}
		if gap != lost {
			return fmt.Errorf("eval: slot %d: generated %d != served %d + expired %d + pending %d (+%d reset at warm-up)",
				s, rl.GeneratedRequests(), res.ServedRequests, res.UnservedRequests, rl.PendingRequests(), lost)
		}
	}
	if digest := hex.EncodeToString(h.Sum(nil)); digest != pin.Eval.TraceSHA256 {
		return fmt.Errorf("eval: reference seed %d trace digest over %d slots is %s; pinned %s",
			pin.Seed, pin.Eval.Slots, digest, pin.Eval.TraceSHA256)
	}
	return nil
}
