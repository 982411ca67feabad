package policy

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/synth"
)

func TestCoordinatorBeatsGroundTruth(t *testing.T) {
	city := testCity(t, 30)
	opts := sim.DefaultOptions(1)
	env := sim.New(city, opts, 1, 30)
	gt := Evaluate(NewGroundTruth(), env, 30)
	coord := Evaluate(NewCoordinator(), env, 30)
	if pipe := metrics.PIPE(gt, coord); pipe <= 0 {
		t.Errorf("coordinated dispatch PIPE = %.1f%%, expected positive", pipe)
	}
	if coord.ServedRequests <= gt.ServedRequests*9/10 {
		t.Errorf("coordinator served %d vs GT %d", coord.ServedRequests, gt.ServedRequests)
	}
}

func TestCoordinatorFairShareImprovesFairness(t *testing.T) {
	// The FairShare mechanism (low earners keep the staying slots) must
	// reduce the PE variance relative to the same policy without it.
	if testing.Short() {
		t.Skip("multi-day comparison; skipped with -short")
	}
	city, err := synth.Build(synth.Config{
		Seed: 42, Regions: 75, Stations: 18, Fleet: 300,
		TripsPerDay: 15 * 300, SlotMinutes: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.DefaultOptions(2)
	opts.WarmupDays = 1
	env := sim.New(city, opts, 1, 42)

	fair := Evaluate(NewCoordinator(), env, 42)
	noFair := NewCoordinator()
	noFair.FairShare = false
	unfair := Evaluate(noFair, env, 42)

	pfFair := metrics.ProfitFairness(fair)
	pfUnfair := metrics.ProfitFairness(unfair)
	if pfFair >= pfUnfair {
		t.Errorf("FairShare PF %.2f not below NoFair PF %.2f", pfFair, pfUnfair)
	}
	// The fairness mechanism must not cost much efficiency.
	peFair := metrics.FleetPE(fair)
	peUnfair := metrics.FleetPE(unfair)
	if peFair < peUnfair*0.9 {
		t.Errorf("FairShare PE %.2f sacrificed >10%% vs NoFair %.2f", peFair, peUnfair)
	}
}

func TestCoordinatorRespectsMasks(t *testing.T) {
	city := testCity(t, 32)
	env := sim.New(city, sim.DefaultOptions(1), 1, 32)
	res := Evaluate(NewCoordinator(), env, 32)
	if env.InvalidActions() > 0 {
		t.Fatalf("coordinator produced %d invalid actions", env.InvalidActions())
	}
	if res.ServedRequests == 0 {
		t.Fatal("coordinator served nothing")
	}
}

func TestCoordinatorName(t *testing.T) {
	c := NewCoordinator()
	if c.Name() != "Coordinator" {
		t.Fatalf("Name = %q", c.Name())
	}
	c.FairShare = false
	if c.Name() != "Coordinator-NoFair" {
		t.Fatalf("NoFair name = %q", c.Name())
	}
}

func TestCoordinatorPreChargesOffPeak(t *testing.T) {
	city := testCity(t, 33)
	env := sim.New(city, sim.DefaultOptions(2), 1, 33)
	res := Evaluate(NewCoordinator(), env, 33)
	if len(res.ChargeStats) == 0 {
		t.Skip("no charging in this run")
	}
	// Pre-charging should place a visible share of plug-ins in the cheap
	// bands (hours 2-5, 12-13, 17).
	var cheap, total int
	for h, c := range res.ChargeStartsByHour {
		total += c
		if (h >= 2 && h < 6) || h == 12 || h == 13 || h == 17 {
			cheap += c
		}
	}
	if total > 20 && float64(cheap)/float64(total) < 0.2 {
		t.Errorf("cheap-band plug-in share %.2f too low for a pre-charging coordinator",
			float64(cheap)/float64(total))
	}
}
