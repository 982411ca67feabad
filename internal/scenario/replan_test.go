package scenario

// Regression tests for the en-route stranding bug: before the hook
// refactor, a taxi whose alternatives were all closed fell back to joining
// its current station's queue even when THAT station was closed too — and
// since a closed station can have free points, the taxi plugged straight
// into it. Now closed-station arrivals wait parked and retry.

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// lowSoCCity returns the micro city with every pack near the forced-charge
// threshold, so the whole fleet heads for a station in the first slot.
func lowSoCCity(t *testing.T, seed int64) *synth.City {
	t.Helper()
	city, err := synth.Build(synth.MicroConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Fleet {
		city.Fleet[i].InitialSoC = 0.22
	}
	return city
}

func recordRun(t *testing.T, city *synth.City, spec *Spec, seed int64) []trace.Event {
	t.Helper()
	env := sim.New(city, sim.DefaultOptions(1), 1, seed)
	var events []trace.Event
	env.SetRecorder(func(ev trace.Event) { events = append(events, ev) })
	if _, err := Attach(env, spec); err != nil {
		t.Fatal(err)
	}
	env.Reset(seed)
	for !env.Done() {
		env.Step(nil)
	}
	return events
}

// A taxi en route to a station that goes dark before it arrives must
// re-plan to an open one: the outage window admits no plug events at the
// closed station, and at least one arrival is redirected away from it.
func TestEnRouteOutageReplans(t *testing.T) {
	city := lowSoCCity(t, 7)
	const dark = 0
	spec, err := NewBuilder("mid-drive-outage").
		StationOutage(dark, 2, 24*60). // closes after dispatch, before arrival
		Build()
	if err != nil {
		t.Fatal(err)
	}
	events := recordRun(t, city, spec, 7)

	var redirected, plugsElsewhere int
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvPlug:
			if ev.A == dark && ev.TimeMin >= 2 {
				t.Fatalf("taxi %d plugged into closed station %d at minute %d", ev.Taxi, ev.A, ev.TimeMin)
			}
			plugsElsewhere++
		case trace.EvBalk, trace.EvReplan:
			if ev.A == dark {
				redirected++
			}
		}
	}
	if redirected == 0 {
		t.Fatal("no arrival was redirected away from the closed station")
	}
	if plugsElsewhere == 0 {
		t.Fatal("outage of one station wiped out all charging")
	}
}

// When EVERY station is closed, taxis wait parked until the blackout lifts
// — nobody plugs into a dead station (the old fallback did exactly that),
// and charging resumes once power returns.
func TestAllStationsClosedWaitsOut(t *testing.T) {
	city := lowSoCCity(t, 8)
	const liftMin = 5 * 60
	b := NewBuilder("citywide-blackout")
	for s := 0; s < city.Stations.Len(); s++ {
		b.StationOutage(s, 0, liftMin)
	}
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	events := recordRun(t, city, spec, 8)

	var plugsAfter int
	for _, ev := range events {
		if ev.Kind != trace.EvPlug {
			continue
		}
		if ev.TimeMin < liftMin {
			t.Fatalf("taxi %d plugged into station %d at minute %d during the blackout",
				ev.Taxi, ev.A, ev.TimeMin)
		}
		plugsAfter++
	}
	if plugsAfter == 0 {
		t.Fatal("fleet never charged after the blackout lifted")
	}
}

// A taxi already waiting in a queue when its station closes is evicted and
// re-plans (EvReplan), rather than staying queued at a dead station.
func TestQueueEvictedOnClosure(t *testing.T) {
	city := lowSoCCity(t, 9)
	// Close everything mid-morning: by then queues have formed (24 taxis,
	// 4 stations, all charging at once), so closures must drain them.
	b := NewBuilder("mid-morning-closure")
	for s := 0; s < city.Stations.Len(); s++ {
		b.StationOutage(s, 45, 4*60)
	}
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	events := recordRun(t, city, spec, 9)

	var queued, evicted bool
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvQueue:
			if ev.TimeMin < 45 {
				queued = true
			}
		case trace.EvReplan:
			evicted = true
		case trace.EvPlug:
			if ev.TimeMin >= 45 && ev.TimeMin < 4*60 {
				t.Fatalf("plug event during the closure window at minute %d", ev.TimeMin)
			}
		}
	}
	if !queued {
		t.Skip("no queue formed before the closure; scenario needs retuning")
	}
	if !evicted {
		t.Fatal("closure did not evict and re-plan the queued taxis")
	}
}
