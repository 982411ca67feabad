package main

import (
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
)

// probe records what happens at the two seams a policy.Runner drives: the
// policy's Act (decide) and the environment's Observe and Step. The
// workloads hand the runner a probeEnv and a probePolicy, so every slot —
// batch or served — leaves one slotRec. Untraced runs keep only the
// per-slot timestamps (four clock reads per slot); traced runs also time
// every Observe and open spans.
//
// A probe is confined to the goroutine that steps the runner.
type probe struct {
	tr   *tracer
	root int // parent span of slot spans

	slots []slotRec

	// Traced only.
	observeN, observeNs int64
	slotSpan            int

	// Request ledger accumulated over every episode the probe has seen, for
	// the useful-work ratio (matches over generated requests).
	generated, invalid int64
	episodeOpen        bool

	// stepped, when non-nil, receives the running slot count after every
	// Step: the serve workload waits on it for the service loop to catch up.
	stepped chan int
}

// slotRec is one slot's timeline.
type slotRec struct {
	slot                                 int
	actStart, actEnd, stepStart, stepEnd time.Time
	observeNs                            int64
}

func newProbe(tr *tracer, root int) *probe { return &probe{tr: tr, root: root} }

// requestLedger is the request accounting the region-sharded engine exposes.
type requestLedger interface {
	GeneratedRequests() int
	PendingRequests() int
}

// probeEnv decorates an Environment with the probe.
type probeEnv struct {
	sim.Environment
	p *probe
}

// Observe counts and, when traced, times one observation.
func (e probeEnv) Observe(id int) sim.Observation {
	p := e.p
	if p.tr == nil {
		return e.Environment.Observe(id)
	}
	t := time.Now()
	obs := e.Environment.Observe(id)
	d := int64(time.Since(t))
	p.observeN++
	p.observeNs += d
	if n := len(p.slots); n > 0 {
		p.slots[n-1].observeNs += d
	}
	return obs
}

// Step times one slot's engine step and closes the slot.
func (e probeEnv) Step(actions map[int]sim.Action) {
	p := e.p
	// policy.Runner always decides before it steps, so the open record is
	// this slot's.
	n := len(p.slots)
	rec := &p.slots[n-1]
	p.episodeOpen = true
	rec.stepStart = time.Now()
	span := p.tr.begin("sim.step", p.slotSpan, rec.slot)
	e.Environment.Step(actions)
	rec.stepEnd = time.Now()
	p.tr.end(span)
	p.tr.end(p.slotSpan)
	if e.Done() {
		p.closeEpisode(e.Environment)
	}
	if p.stepped != nil {
		p.stepped <- n
	}
}

// Reset folds the finished episode's ledger into the probe first.
func (e probeEnv) Reset(seed int64) {
	e.p.closeEpisode(e.Environment)
	e.Environment.Reset(seed)
}

// closeEpisode adds the stepped episode's request ledger to the totals: at
// Done, at Reset, or when a measurement ends mid-episode.
func (p *probe) closeEpisode(env sim.Environment) {
	if !p.episodeOpen {
		return
	}
	p.episodeOpen = false
	if l, ok := env.(requestLedger); ok {
		p.generated += int64(l.GeneratedRequests())
	}
	p.invalid += int64(env.InvalidActions())
}

// probePolicy decorates a Policy with the probe: it opens each slot's
// record and times Act.
type probePolicy struct {
	policy.Policy
	p *probe
}

func (pp probePolicy) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	p := pp.p
	slot := env.Slot()
	p.slots = append(p.slots, slotRec{slot: slot, actStart: time.Now()})
	p.slotSpan = p.tr.begin("slot", p.root, slot)
	span := p.tr.begin("policy.decide", p.slotSpan, slot)
	acts := pp.Policy.Act(env, vacant)
	p.tr.end(span)
	p.slots[len(p.slots)-1].actEnd = time.Now()
	return acts
}
