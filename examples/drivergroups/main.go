// Drivergroups demonstrates the Section V extension: dividing drivers into
// performance tiers (the "five-star rating" groups taxi companies assign)
// and measuring profit fairness within each group, under both uncoordinated
// drivers and the coordinated fairness-aware dispatcher.
//
//	go run ./examples/drivergroups
package main

import (
	"fmt"
	"log"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synth"
)

func main() {
	city, err := synth.Build(synth.Config{
		Seed: 5, Regions: 50, Stations: 12, Fleet: 200,
		TripsPerDay: 15 * 200, SlotMinutes: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := sim.DefaultOptions(2)
	opts.WarmupDays = 1
	env := sim.New(city, opts, 1, 5)

	show := func(name string, p policy.Policy) {
		res := policy.Evaluate(p, env, 5)
		assign, err := metrics.StarGroupsByPE(res, 5)
		if err != nil {
			log.Fatal(err)
		}
		groups := metrics.WithinGroupFairness(res, assign)
		fmt.Printf("%s: fleet PF=%.2f, within-group mean PF=%.2f\n",
			name, metrics.ProfitFairness(res), metrics.MeanWithinGroupPF(groups))
		for _, g := range groups {
			stars := g.Group + 1
			fmt.Printf("  %d★ n=%-4d meanPE=%6.2f CNY/h  within-group PF=%6.2f\n",
				stars, g.N, g.MeanPE, g.PF)
		}
	}

	show("uncoordinated drivers (GT)", policy.NewGroundTruth())
	fmt.Println()
	show("fairness-aware coordination", policy.NewCoordinator())

	fmt.Println("\nSection V's point: a veteran out-earning a novice is not unfair,")
	fmt.Println("so fairness should be judged within peer groups — which the")
	fmt.Println("within-group PF numbers above make visible.")
}
