package policy

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/synth"
)

// TestRunnerMatchesEvaluate pins the driver/core split introduced for the
// online dispatch service: Evaluate is now a thin loop over Runner, and a
// hand-driven Runner must produce the identical Results as Evaluate on a
// fresh environment with the same (policy, city, seed).
func TestRunnerMatchesEvaluate(t *testing.T) {
	const seed = 51
	city, err := synth.Build(synth.MicroConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions(1)

	evalEnv := sim.New(city, opts, 1, seed)
	want := Evaluate(NewGroundTruth(), evalEnv, seed)

	runEnv := sim.New(city, opts, 1, seed)
	r := NewRunner(NewGroundTruth(), runEnv, seed)
	for !r.Done() {
		r.StepSlot()
	}
	got := r.Results()

	if got.ServedRequests != want.ServedRequests || got.UnservedRequests != want.UnservedRequests {
		t.Fatalf("served/unserved diverged: runner %d/%d, evaluate %d/%d",
			got.ServedRequests, got.UnservedRequests, want.ServedRequests, want.UnservedRequests)
	}
	if got.FleetProfit() != want.FleetProfit() {
		t.Fatalf("fleet profit diverged: runner %v, evaluate %v", got.FleetProfit(), want.FleetProfit())
	}
	if len(got.TripStats) != len(want.TripStats) {
		t.Fatalf("trip stats diverged: runner %d, evaluate %d", len(got.TripStats), len(want.TripStats))
	}
	wantSlots := runEnv.Slot()
	if r.Slots() != wantSlots {
		t.Fatalf("runner counted %d slots, environment ran %d", r.Slots(), wantSlots)
	}
}

// TestRunnerDecisionsDeterministic: two runners over the same seed record
// identical decision streams, and every decision covers exactly the vacant
// taxis of its slot (missing policy entries surface as explicit Stay).
func TestRunnerDecisionsDeterministic(t *testing.T) {
	const seed = 52
	city, err := synth.Build(synth.MicroConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	record := func() []Decision {
		env := sim.New(city, sim.DefaultOptions(1), 1, seed)
		r := NewRunner(NewGroundTruth(), env, seed)
		var all []Decision
		for i := 0; i < 24 && !r.Done(); i++ {
			vacant := len(env.VacantTaxis())
			ds := r.StepSlot()
			if len(ds) != vacant {
				t.Fatalf("slot %d: %d decisions for %d vacant taxis", i, len(ds), vacant)
			}
			all = append(all, append([]Decision(nil), ds...)...)
		}
		return all
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("decision streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRunnerSetPolicySwitchesMidRun: SetPolicy takes effect on the next slot
// and the environment keeps advancing — the contract the serve hot swap
// builds on.
func TestRunnerSetPolicySwitchesMidRun(t *testing.T) {
	const seed = 53
	city, err := synth.Build(synth.MicroConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	env := sim.New(city, sim.DefaultOptions(1), 1, seed)
	r := NewRunner(NewGroundTruth(), env, seed)
	r.StepSlot()
	if r.Policy().Name() != "GT" {
		t.Fatalf("serving %q, want GT", r.Policy().Name())
	}
	r.SetPolicy(NewSD2(), seed)
	if r.Policy().Name() != "SD2" {
		t.Fatalf("serving %q after swap, want SD2", r.Policy().Name())
	}
	before := env.Slot()
	r.StepSlot()
	if env.Slot() != before+1 {
		t.Fatalf("swap stalled the clock: slot %d -> %d", before, env.Slot())
	}
}
