package sim

import "math"

// Observation is the per-agent state of Section III-C: a local view (time
// and location context) plus a global view (supply, charging availability,
// and forecast demand), compressed to the agent's neighborhood so the
// feature width stays fixed while the policy network is shared by all
// agents. Mask marks which of the NumActions discrete actions are valid.
type Observation struct {
	Features []float64
	Mask     [NumActions]bool
}

// Feature layout (see buildRow). The width is fixed so one shared network
// serves every agent, per the paper's centralized design.
const (
	featTime      = 2                // sin/cos of day fraction
	featSelf      = 3                // SoC, PE gap to fleet mean, vacancy age
	featOwnRegion = 3                // supply, forecast, expected fare
	featNeighbors = 3 * MaxNeighbors // same triple per neighbor, zero-padded
	featStations  = 4 * KStations    // free points, queue, distance, price
	featGlobal    = 3                // fleet vacancy rate, queue rate, tariff band level

	// FeatureSize is the total observation width.
	FeatureSize = featTime + featSelf + featOwnRegion + featNeighbors + featStations + featGlobal
)

// obsState is the engine's observation storage. Every feature
// except the three self features is a pure function of the taxi's region
// and the slot (the engine is static between Steps), so an observation is
// built in two parts: the region's context row, computed at most once per
// (region, slot) the first time a taxi there is observed, and the taxi's own
// SoC, PE gap and vacancy age, written over the row's copy in the taxi's
// buffer. Rows are keyed on a slot stamp, which Reset clears because slot
// numbers repeat across episodes; Step does no eager work, so an engine
// driven by a policy that never observes pays nothing.
type obsState struct {
	// bufs holds one feature buffer per taxi, cut from one slab on the first
	// Observe. Observation.Features borrows bufs[id] (see Core.Observe).
	bufs [][]float64
	// stale caches each taxi's last fresh features for GPS dropout windows;
	// allocated on the first Observe under hooks.
	stale [][]float64

	// rows holds region r's context row at [r*FeatureSize, (r+1)*FeatureSize),
	// valid while stamp[r] equals the current slot + 1 (0 = never built).
	// Rows are engine-owned and never handed out: Observe copies them.
	rows  []float64
	stamp []int

	// Per-slot inputs the rows share, valid while slotStamp equals the
	// current slot + 1: every region's (supply, forecast, fare) triple — a
	// region appears in its own row and in each neighbor's — and the
	// fleet-wide vacant and charge-bound totals. supply is the count buffer
	// the triples are built from, zeroed and recounted each slot.
	slotStamp      int
	supply         []int
	triples        []float64
	vacant, queued int
}

// reset invalidates every per-slot row and input and drops the
// stale-feature cache. Buffers are kept: the fleet and the partition are
// fixed per city.
func (o *obsState) reset() {
	clear(o.stamp)
	o.slotStamp = 0
	o.stale = nil
}

// Observe builds the observation for a vacant taxi: copy the region's
// context row into the taxi's buffer, write the self features, then apply
// the GPS-dropout stale path. It is deterministic given the engine state.
//
// Features borrows a per-taxi buffer owned by the engine: it stays valid
// until the same taxi is observed again. Within one slot repeated
// observations rewrite identical bytes, so holding the slice across calls
// in the same slot is safe; callers keeping features across Step (replay
// buffers, demonstration logs) must copy them out.
func (c *Core) Observe(id int) Observation {
	o, t, now := &c.obs, &c.taxis[id], c.nowMin
	if stamp := now/c.slotLen + 1; o.stamp == nil || o.stamp[t.region] != stamp {
		c.buildRow(t.region, stamp)
	}
	f := append(o.bufs[id][:0], o.rows[t.region*FeatureSize:(t.region+1)*FeatureSize]...)

	// Self.
	meanPE, _ := c.FleetPEStats()
	peGap := (c.PESoFar(id) - meanPE) / 50 // fairness signal
	vacancyAge := float64(now-t.vacantSinceMin) / 60
	f[featTime] = t.batt.SoC
	f[featTime+1] = clampF(peGap, -2, 2)
	f[featTime+2] = clampF(vacancyAge, 0, 4)

	// GPS dropout: while the taxi's region is in a dropout window its
	// features freeze at the last fresh observation — the policy decides on
	// stale state. The action mask stays current: it encodes physical
	// validity (battery, topology), not telemetry.
	if c.hooks != nil {
		if o.stale == nil {
			o.stale = make([][]float64, len(o.bufs))
		}
		if c.hooks.ObsStale(t.region, now) {
			c.tel.staleObs.Inc()
			if cached := o.stale[id]; cached != nil {
				f = append(f[:0], cached...)
			}
		} else {
			o.stale[id] = append(o.stale[id][:0], f...)
		}
	}
	o.bufs[id] = f
	return Observation{Features: f, Mask: c.ValidMask(id)}
}

// buildRow writes region r's context row for the slot stamped stamp: the
// whole feature layout, with zeros at the self features observe fills in
// per taxi.
func (c *Core) buildRow(r, stamp int) {
	o := &c.obs
	if o.bufs == nil {
		o.alloc(len(c.taxis), c.city.Partition.Len())
	}
	if o.slotStamp != stamp {
		c.refreshSlot()
		o.slotStamp = stamp
	}
	row := o.rows[r*FeatureSize : (r+1)*FeatureSize : (r+1)*FeatureSize]
	f := row[:0]
	now := c.nowMin
	dayFrac := float64(now%(24*60)) / (24 * 60)

	// Time.
	f = append(f, math.Sin(2*math.Pi*dayFrac), math.Cos(2*math.Pi*dayFrac))

	// Self, written per taxi by observe.
	f = append(f, 0, 0, 0)

	// Own region triple.
	f = append(f, o.triples[3*r:3*r+3]...)

	// Neighbor triples, zero-padded to MaxNeighbors.
	nbs := c.city.Partition.Region(r).Neighbors
	for i := 0; i < MaxNeighbors; i++ {
		if i < len(nbs) {
			f = append(f, o.triples[3*nbs[i]:3*nbs[i]+3]...)
		} else {
			f = append(f, 0, 0, 0)
		}
	}

	// Nearest stations.
	ns := c.nearStations[r]
	for k := 0; k < KStations; k++ {
		if k < len(ns) {
			st := c.stations[ns[k].Label]
			f = append(f,
				float64(st.Free())/20,
				float64(st.QueueLen())/10,
				ns[k].DistKm/10,
				c.city.Tariff.Rate(c.city.Tariff.BandAt(now))/2,
			)
		} else {
			f = append(f, 0, 0, 0, 0)
		}
	}

	// Global aggregates.
	n := float64(len(c.taxis))
	band := float64(c.city.Tariff.BandAt(now)) / 2
	f = append(f, float64(o.vacant)/n, float64(o.queued)/n, band)

	if len(f) != FeatureSize {
		panic("sim: feature size mismatch")
	}
	o.stamp[r] = stamp
}

// alloc sizes the per-taxi buffers (one slab, each buffer capped at
// FeatureSize so no append can reach a neighbor's), the region rows and the
// per-slot inputs.
func (o *obsState) alloc(taxis, regions int) {
	slab := make([]float64, taxis*FeatureSize)
	o.bufs = make([][]float64, taxis)
	for i := range o.bufs {
		o.bufs[i] = slab[i*FeatureSize : i*FeatureSize : (i+1)*FeatureSize]
	}
	o.rows = make([]float64, regions*FeatureSize)
	o.stamp = make([]int, regions)
	o.supply = make([]int, regions)
	o.triples = make([]float64, 3*regions)
}

// refreshSlot recounts the fleet into the reused supply buffer and
// recomputes every region's (supply, forecast, fare) triple. The forecast
// is the oracle expectation by default, the learned predictor under
// Options.LearnedForecast, or zero under the ablation.
func (c *Core) refreshSlot() {
	o := &c.obs
	clear(o.supply)
	o.vacant, o.queued = 0, 0
	for i := range c.taxis {
		switch c.taxis[i].state {
		case Cruising:
			o.supply[c.taxis[i].region]++
			o.vacant++
		case Queued, ToStation:
			o.queued++
		}
	}
	now := c.nowMin
	hour := hourAt(now)
	for r, supply := range o.supply {
		var forecast float64
		switch {
		case c.opts.NoForecastFeature:
			forecast = 0
		case c.predictor != nil:
			forecast = c.predictor.Predict(r, now/c.slotLen)
		default:
			forecast = c.city.Demand.ExpectedSlotDemand(r, now, c.slotLen)
		}
		fare := c.city.Demand.ExpectedFare(r, hour)
		o.triples[3*r] = float64(supply) / 10
		o.triples[3*r+1] = forecast / 10
		o.triples[3*r+2] = fare / 100
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
