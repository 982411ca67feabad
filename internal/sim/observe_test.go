package sim_test

import (
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synth"
)

// obsCity is a small city with ten taxis per region on average, so most
// regions hold several vacant taxis that share a context row.
func obsCity(t *testing.T) *synth.City {
	t.Helper()
	city, err := synth.Build(synth.Config{
		Seed: 7, Regions: 60, Stations: 12, Fleet: 600,
		TripsPerDay: 37 * 600, SlotMinutes: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// obsEngine is an engine under test and its name.
type obsEngine struct {
	name string
	env  *sim.Core
}

func obsEngines(city *synth.City, opts sim.Options, seed int64) []obsEngine {
	return []obsEngine{
		{"core-k1", sim.New(city, opts, 1, seed)},
		{"core-k3", sim.New(city, opts, 3, seed)},
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSlot observes every vacant taxi twice (descending, then ascending
// IDs, so different taxis trigger each region's row build) and compares
// each observation with the reference. It returns the slot's actions: each
// taxi's first valid action from a rotating start, so taxis move and charge
// and station state changes.
func checkSlot(t *testing.T, eng obsEngine, ref *sim.RefObserver) map[int]sim.Action {
	t.Helper()
	ids := eng.env.VacantTaxis()
	actions := make(map[int]sim.Action, len(ids))
	check := func(id int) {
		got := eng.env.Observe(id)
		want := ref.Observe(eng.env, id)
		if !sameBits(got.Features, want.Features) || got.Mask != want.Mask {
			t.Fatalf("%s slot %d taxi %d: cached observation differs from reference\n got  %v %v\n want %v %v",
				eng.name, eng.env.Slot(), id, got.Features, got.Mask, want.Features, want.Mask)
		}
		for k := 0; k < sim.NumActions; k++ {
			if a := (id + eng.env.Slot() + k) % sim.NumActions; got.Mask[a] {
				actions[id] = sim.ActionFromIndex(a)
				break
			}
		}
	}
	for i := len(ids) - 1; i >= 0; i-- {
		check(ids[i])
	}
	for _, id := range ids {
		check(id)
	}
	return actions
}

// runChecked steps the engine to slot to, comparing every observation with
// the reference from slot from on. Every fifth slot is stepped without
// observing, so rows built two slots back must not be reused.
func runChecked(t *testing.T, eng obsEngine, from, to int) {
	t.Helper()
	ref := sim.NewRefObserver()
	for s := eng.env.Slot(); s < to && !eng.env.Done(); s++ {
		if s < from || s%5 == 4 {
			eng.env.Step(nil)
			continue
		}
		eng.env.Step(checkSlot(t, eng, ref))
	}
}

// TestObserveMatchesReference pins the per-slot region context cache: at
// one and three shards, under every forecast mode and under perturbations that
// touch the stale path and station state, the cached Observe is bit-identical
// to an uncached rebuild — over many slots, and again after Reset to a
// different seed, when slot numbers (and so slot stamps) start over.
func TestObserveMatchesReference(t *testing.T) {
	city := obsCity(t)
	dropout, err := scenario.NewBuilder("dropout").
		GPSDropout(-1, 60, 120).
		GPSDropout(5, 200, 400).
		GPSDropout(17, 0, 24*60).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	stations, err := scenario.NewBuilder("outage-derate").
		StationOutage(1, 30, 300).
		StationOutage(4, 0, 24*60).
		StationDerate(2, 2, 0, 24*60).
		StationDerate(7, 1, 100, 500).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	learned := sim.DefaultOptions(1)
	learned.LearnedForecast = true
	noForecast := sim.DefaultOptions(1)
	noForecast.NoForecastFeature = true
	cases := []struct {
		name string
		opts sim.Options
		spec *scenario.Spec
	}{
		{"oracle-forecast", sim.DefaultOptions(1), nil},
		{"learned-forecast", learned, nil},
		{"no-forecast", noForecast, nil},
		{"gps-dropout", sim.DefaultOptions(1), dropout},
		{"station-outage-derate", sim.DefaultOptions(1), stations},
	}
	slots := 60
	if testing.Short() {
		slots = 30
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range obsEngines(city, tc.opts, 11) {
				if tc.spec != nil {
					eng.env.SetHooks(scenario.NewEngine(tc.spec))
				}
				runChecked(t, eng, 0, slots)
				// Step silently to the first episode's last observed slots:
				// the rows it built there carry exactly these slot stamps,
				// so a stamp surviving Reset would serve its context.
				eng.env.Reset(12)
				runChecked(t, eng, slots-2, slots)
				eng.env.Reset(13)
				runChecked(t, eng, 0, slots/2)
			}
		})
	}
}

// TestObserveDistinctBuffers checks that observations never share storage:
// two taxis in the same region, observed back to back, get distinct
// Features slices, each with its own self features, and scribbling on one
// leaves the region's context row intact for the next taxi.
func TestObserveDistinctBuffers(t *testing.T) {
	city := obsCity(t)
	for _, eng := range obsEngines(city, sim.DefaultOptions(1), 3) {
		for s := 0; s < 12; s++ {
			eng.env.Step(nil)
		}
		byRegion := map[int][]int{}
		for _, id := range eng.env.VacantTaxis() {
			r := eng.env.TaxiRegion(id)
			byRegion[r] = append(byRegion[r], id)
		}
		var a, b int
		found := false
		for r := 0; r < city.Partition.Len() && !found; r++ {
			ids := byRegion[r]
			for i := 0; i+1 < len(ids) && !found; i++ {
				if eng.env.TaxiSoC(ids[i]) != eng.env.TaxiSoC(ids[i+1]) {
					a, b, found = ids[i], ids[i+1], true
				}
			}
		}
		if !found {
			t.Fatalf("%s: no region holds two vacant taxis with different SoC", eng.name)
		}
		ref := sim.NewRefObserver()
		oa := eng.env.Observe(a)
		keepA := append([]float64(nil), oa.Features...)
		ob := eng.env.Observe(b)
		if &oa.Features[0] == &ob.Features[0] {
			t.Fatalf("%s: taxis %d and %d share a Features buffer", eng.name, a, b)
		}
		if !sameBits(oa.Features, keepA) {
			t.Fatalf("%s: observing taxi %d rewrote taxi %d's features", eng.name, b, a)
		}
		if !sameBits(oa.Features, ref.Observe(eng.env, a).Features) ||
			!sameBits(ob.Features, ref.Observe(eng.env, b).Features) {
			t.Fatalf("%s: back-to-back observations differ from reference", eng.name)
		}
		if oa.Features[2] == ob.Features[2] {
			t.Fatalf("%s: taxis %d and %d report the same SoC feature", eng.name, a, b)
		}
		for i := range ob.Features {
			ob.Features[i] = -1
		}
		if got := eng.env.Observe(a); !sameBits(got.Features, keepA) {
			t.Fatalf("%s: scribbling on taxi %d's features reached taxi %d's observation", eng.name, b, a)
		}
	}
}
