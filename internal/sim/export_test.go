package sim

import (
	"math"

	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/station"
	"repro/internal/synth"
)

// RefObserver rebuilds observations from scratch on every call: each
// feature recomputed from engine state in the original per-taxi order,
// fleet scans included, no per-slot or per-region caching, with its own
// GPS-dropout memory. Tests compare the engine's Observe against it bit for
// bit. Create a fresh one after Reset, as the engine drops its dropout
// memory there.
type RefObserver struct {
	stale map[int][]float64
}

// NewRefObserver returns a reference observer with empty dropout memory.
func NewRefObserver() *RefObserver { return &RefObserver{stale: map[int][]float64{}} }

// refState is the engine state the reference reads, taken straight from an
// engine's fields.
type refState struct {
	city         *synth.City
	opts         Options
	predictor    *forecast.Predictor
	slotLen, now int
	taxis        []taxi
	stations     []*station.State
	nearStations [][]geo.Neighbor
	hooks        Hooks
}

// Observe builds taxi id's observation on e.
func (r *RefObserver) Observe(e *Core, id int) Observation {
	s := refState{e.city, e.opts, e.predictor, e.slotLen, e.nowMin, e.taxis, e.stations, e.nearStations, e.hooks}
	return r.observe(&s, id)
}

func (r *RefObserver) observe(s *refState, id int) Observation {
	t := &s.taxis[id]
	now := s.now
	f := make([]float64, 0, FeatureSize)
	dayFrac := float64(now%(24*60)) / (24 * 60)
	f = append(f, math.Sin(2*math.Pi*dayFrac), math.Cos(2*math.Pi*dayFrac))

	var meanPE float64
	var onDuty int
	for i := range s.taxis {
		if s.taxis[i].acct.OnDutyMin() > 0 {
			meanPE += refPESoFar(&s.taxis[i].acct)
			onDuty++
		}
	}
	if onDuty > 0 {
		meanPE /= float64(onDuty)
	}
	peGap := (refPESoFar(&t.acct) - meanPE) / 50
	vacancyAge := float64(now-t.vacantSinceMin) / 60
	f = append(f, t.batt.SoC, clampF(peGap, -2, 2), clampF(vacancyAge, 0, 4))

	supply := make([]int, s.city.Partition.Len())
	var vacant, queued int
	for i := range s.taxis {
		switch s.taxis[i].state {
		case Cruising:
			supply[s.taxis[i].region]++
			vacant++
		case Queued, ToStation:
			queued++
		}
	}
	triple := func(region int) {
		var fc float64
		switch {
		case s.opts.NoForecastFeature:
			fc = 0
		case s.predictor != nil:
			fc = s.predictor.Predict(region, now/s.slotLen)
		default:
			fc = s.city.Demand.ExpectedSlotDemand(region, now, s.slotLen)
		}
		fare := s.city.Demand.ExpectedFare(region, hourAt(now))
		f = append(f, float64(supply[region])/10, fc/10, fare/100)
	}
	triple(t.region)
	nbs := s.city.Partition.Region(t.region).Neighbors
	for i := 0; i < MaxNeighbors; i++ {
		if i < len(nbs) {
			triple(nbs[i])
		} else {
			f = append(f, 0, 0, 0)
		}
	}

	ns := s.nearStations[t.region]
	for k := 0; k < KStations; k++ {
		if k < len(ns) {
			st := s.stations[ns[k].Label]
			f = append(f,
				float64(st.Free())/20,
				float64(st.QueueLen())/10,
				ns[k].DistKm/10,
				s.city.Tariff.Rate(s.city.Tariff.BandAt(now))/2,
			)
		} else {
			f = append(f, 0, 0, 0, 0)
		}
	}

	n := float64(len(s.taxis))
	band := float64(s.city.Tariff.BandAt(now)) / 2
	f = append(f, float64(vacant)/n, float64(queued)/n, band)
	if len(f) != FeatureSize {
		panic("sim: reference feature size mismatch")
	}

	if s.hooks != nil {
		if s.hooks.ObsStale(t.region, now) {
			if cached, ok := r.stale[id]; ok {
				f = append(f[:0], cached...)
			}
		} else {
			r.stale[id] = append([]float64(nil), f...)
		}
	}

	var mask [NumActions]bool
	mustCharge := t.batt.SoC < s.opts.LowSoC
	mayCharge := t.batt.SoC < s.opts.AllowChargeSoC
	if !mustCharge {
		mask[0] = true
		for i := 0; i < len(nbs) && i < MaxNeighbors; i++ {
			mask[1+i] = true
		}
	}
	if mustCharge || mayCharge {
		for k := 0; k < len(ns) && k < KStations; k++ {
			mask[1+MaxNeighbors+k] = true
		}
	}
	return Observation{Features: f, Mask: mask}
}

// refPESoFar is PESoFar's formula: profit per on-duty hour, the hours
// floored at one.
func refPESoFar(a *TaxiAccount) float64 {
	d := a.OnDutyMin()
	if d < peFloorMin {
		d = peFloorMin
	}
	return a.ProfitCNY() / (d / 60)
}
