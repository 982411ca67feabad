package sim

import (
	"testing"

	"repro/internal/synth"
)

// forecastFeatureIndex is the offset of the own-region forecast feature.
const forecastFeatureIndex = featTime + featSelf + 1

func TestNoForecastFeatureZeroes(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	opts.NoForecastFeature = true
	e := New(city, opts, 1, 50)
	for _, id := range e.VacantTaxis()[:5] {
		obs := e.Observe(id)
		if obs.Features[forecastFeatureIndex] != 0 {
			t.Fatalf("forecast feature = %v with ablation on", obs.Features[forecastFeatureIndex])
		}
	}
}

func TestLearnedForecastColdThenWarm(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.LearnedForecast = true
	e := New(city, opts, 1, 51)

	// Cold: the predictor has seen nothing, so forecasts are the prior (0).
	id := e.VacantTaxis()[0]
	if got := e.Observe(id).Features[forecastFeatureIndex]; got != 0 {
		t.Fatalf("cold learned forecast = %v, want 0", got)
	}

	// After a day of observations the busiest regions must forecast > 0.
	for i := 0; i < 144 && !e.Done(); i++ {
		e.Step(nil)
	}
	var any bool
	for _, id := range e.VacantTaxis() {
		if e.Observe(id).Features[forecastFeatureIndex] > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("learned forecast stayed at zero after a day of demand")
	}
}

func TestLearnedForecastResetsWithEnv(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(52))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	opts.LearnedForecast = true
	e := New(city, opts, 1, 52)
	for i := 0; i < 20; i++ {
		e.Step(nil)
	}
	e.Reset(52)
	id := e.VacantTaxis()[0]
	if got := e.Observe(id).Features[forecastFeatureIndex]; got != 0 {
		t.Fatalf("forecast survived Reset: %v", got)
	}
}

func TestOracleForecastPositiveInBusyRegions(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(53))
	if err != nil {
		t.Fatal(err)
	}
	e := New(city, DefaultOptions(1), 1, 53)
	var any bool
	for _, id := range e.VacantTaxis() {
		if e.Observe(id).Features[forecastFeatureIndex] > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("oracle forecast zero everywhere")
	}
}
