package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/demand"
	"repro/internal/energy"
	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/station"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TaxiState is the simulator's per-vehicle state machine.
type TaxiState int

// Taxi states, mirroring the mobility decomposition of Fig. 1.
const (
	// Cruising: vacant, matchable, receives displacement actions.
	Cruising TaxiState = iota
	// Serving: passenger on board until tripEndMin.
	Serving
	// ToStation: driving to a charging station (part of idle time).
	ToStation
	// Queued: at a station waiting for a point (part of idle time).
	Queued
	// ChargingState: plugged in until the target SoC.
	ChargingState
	// Relocating: executing a Move action; unmatchable until arrival. The
	// time still counts as cruising (the taxi is seeking, just elsewhere).
	Relocating
)

// String implements fmt.Stringer.
func (s TaxiState) String() string {
	switch s {
	case Cruising:
		return "cruising"
	case Serving:
		return "serving"
	case ToStation:
		return "to-station"
	case Queued:
		return "queued"
	case ChargingState:
		return "charging"
	case Relocating:
		return "relocating"
	default:
		return fmt.Sprintf("TaxiState(%d)", int(s))
	}
}

// Options configures a simulation run.
type Options struct {
	// Days is the simulated horizon.
	Days int
	// ChargeTargetSoC is the SoC at which a charging session ends (default 0.95).
	ChargeTargetSoC float64
	// LowSoC is the forced-charge threshold η of the paper (default 0.20):
	// below it only charging actions are valid.
	LowSoC float64
	// AllowChargeSoC is the ceiling below which charging actions are offered
	// (default 0.60): a nearly full taxi is not offered charge actions.
	AllowChargeSoC float64
	// CruiseSpeedKmh is the effective crawl speed while seeking passengers
	// (default 12; slow, with stops).
	CruiseSpeedKmh float64
	// PatienceMin is how long a passenger waits before abandoning the
	// request (default 10 minutes — one slot).
	PatienceMin int
	// WarmupDays runs the fleet for this many days before accounting
	// starts, so metrics reflect steady state rather than the synchronized
	// initial battery levels (the paper evaluates a full month, where
	// start-up transients are negligible). Default 0.
	WarmupDays int
	// NoForecastFeature zeroes the demand-forecast component of every
	// observation. It is the ablation for the paper's "expected number of
	// passengers at the next time slot" global-state feature.
	NoForecastFeature bool
	// LearnedForecast replaces the oracle demand expectation in the
	// observation features with an online-learned predictor (historical
	// slot-of-day profile + real-time correction), matching the paper's
	// "predicted with historical and real-time data". The oracle remains
	// the default so experiments stay comparable.
	LearnedForecast bool
	// BalkFactor controls queue balking: a taxi arriving at a station whose
	// queue is ≥ BalkFactor × its point count drives on to the next nearest
	// station instead of joining (up to maxBalks redirects). Drivers do not
	// join hopeless queues; this bounds the damage of bad station choices
	// for every policy. Default 2; negative disables balking.
	BalkFactor float64
}

// maxBalks caps redirects per charging attempt so a taxi eventually joins
// some queue even when the whole network is saturated.
const maxBalks = 3

// DefaultOptions returns the evaluation defaults.
func DefaultOptions(days int) Options {
	return Options{
		Days:            days,
		ChargeTargetSoC: 0.95,
		LowSoC:          0.20,
		AllowChargeSoC:  0.30,
		CruiseSpeedKmh:  12,
		PatienceMin:     10,
		BalkFactor:      2,
	}
}

func (o *Options) fillDefaults() {
	if o.Days <= 0 {
		o.Days = 1
	}
	if o.ChargeTargetSoC == 0 {
		o.ChargeTargetSoC = 0.95
	}
	if o.LowSoC == 0 {
		o.LowSoC = 0.20
	}
	if o.AllowChargeSoC == 0 {
		o.AllowChargeSoC = 0.30
	}
	if o.CruiseSpeedKmh == 0 {
		o.CruiseSpeedKmh = 12
	}
	if o.PatienceMin == 0 {
		o.PatienceMin = 10
	}
	if o.BalkFactor == 0 {
		o.BalkFactor = 2
	}
}

type taxi struct {
	id     int
	state  TaxiState
	region int
	batt   energy.Battery

	// Serving
	pickupMin  int
	tripEndMin int
	tripDest   int

	// Charging pipeline
	stationID    int
	departMin    int // when it left to charge (start of idle, t3)
	arriveMin    int // when it reaches the station
	plugMin      int
	chargeSoC0   float64
	chargeEnergy float64
	chargeCost   float64

	// balkCount counts redirects within the current charging attempt.
	balkCount int
	// chargeTarget is this session's stop SoC, jittered per event around
	// Options.ChargeTargetSoC: drivers unplug anywhere from "enough to keep
	// working" to a full pack, which is what spreads session durations over
	// the paper's 45-120 minute band (Fig. 3).
	chargeTarget float64

	// Cruise tracking. vacantSinceMin anchors seek-time accounting;
	// crawlFromMin anchors incremental crawl-energy accounting so energy
	// drains slot by slot rather than in a lump at match time.
	vacantSinceMin int
	crawlFromMin   int
	afterCharge    bool // next pickup is the first after a charge
	lastStation    int

	acct TaxiAccount
	// slotProfit accumulates fare − charge cost during the current Step;
	// trainers read it as the monetary part of the slot reward.
	slotProfit float64
}

// Env is the fleet environment.
type Env struct {
	city *synth.City
	opts Options

	slotLen  int
	nowMin   int
	endMin   int
	taxis    []taxi
	stations []*station.State

	demandSrc *rng.Source
	matchSrc  *rng.Source

	// pending holds unserved requests still within their patience window.
	pending []demand.Request

	// nearStations[region] caches the KStations nearest stations.
	nearStations [][]geo.Neighbor
	// masks[region] holds the region's static action masks (ValidMask).
	masks []regionMasks

	// PE statistics cache, keyed by the slot it was computed for and
	// invalidated (slot = -1) at the end of Step and on Reset; between Steps
	// the environment is static, so the fleet scan runs once per slot, not
	// once per taxi.
	peSlot int // slot for which peMean/peVar are valid
	peMean float64
	peVar  float64

	// obs holds the per-taxi feature buffers, the per-region context rows
	// and the per-slot inputs they share, behind Observe (see observe.go).
	obs obsState

	// Reusable hot-path scratch. vacantBuf backs VacantTaxis; reqBuf backs
	// the slot's demand sample; fcCounts backs the predictor's per-region
	// counts; regionCands backs matchRequests' per-region candidate buckets;
	// pendSort is the persistent sorter for pending requests. None of these
	// carry state across slots.
	vacantBuf   []int
	reqBuf      []demand.Request
	fcCounts    []float64
	regionCands [][]int
	pendSort    reqsByTime

	res Results

	// hooks is the installed fault/perturbation engine (nil = clean run);
	// xh is its optional extended tier (nil unless hooks also implements
	// ExtendedHooks); rec receives the structured event log (nil = none).
	// See hooks.go.
	hooks Hooks
	xh    ExtendedHooks
	rec   Recorder
	// closedNow tracks each station's closure state so the perturbation
	// sweep can emit outage transition events exactly once per edge.
	closedNow []bool
	// predictor is the learned demand forecaster (when LearnedForecast).
	predictor *forecast.Predictor

	// tel holds pre-resolved telemetry handles (see telemetry.go). All
	// fields nil when telemetry is off; writes then cost nothing.
	tel simTel

	invalidActions int
	finalized      bool
	// generated counts every sampled request since Reset (warmup included),
	// mirroring Core's counter for the request-conservation invariant.
	generated int
}

// stationClosed reports whether station rejects new arrivals at minute m.
func (e *Env) stationClosed(station, m int) bool {
	return e.hooks != nil && e.hooks.StationClosed(station, m)
}

// New constructs an environment over city and resets it with seed.
func New(city *synth.City, opts Options, seed int64) *Env {
	opts.fillDefaults()
	e := &Env{
		city:    city,
		opts:    opts,
		slotLen: city.Config.SlotMinutes,
	}
	// Cache per-region nearest stations.
	n := city.Partition.Len()
	e.nearStations = make([][]geo.Neighbor, n)
	for r := 0; r < n; r++ {
		e.nearStations[r] = city.Stations.Nearest(city.Partition.Region(r).Centroid, KStations)
	}
	e.masks = newRegionMasks(city, e.nearStations)
	e.Reset(seed)
	return e
}

// Reset restores the initial fleet and clears all accounting. The same seed
// reproduces the same demand realization, so baselines are compared on
// identical workloads.
func (e *Env) Reset(seed int64) {
	e.nowMin = 0
	e.endMin = (e.opts.WarmupDays + e.opts.Days) * 24 * 60
	e.demandSrc = rng.SplitStable(seed, "sim-demand")
	e.matchSrc = rng.SplitStable(seed, "sim-match")
	e.taxis = make([]taxi, len(e.city.Fleet))
	for i, v := range e.city.Fleet {
		e.taxis[i] = taxi{
			id:             v.ID,
			state:          Cruising,
			region:         v.HomeRegion,
			batt:           e.city.NewBattery(v),
			vacantSinceMin: 0,
			crawlFromMin:   0,
			lastStation:    -1,
		}
	}
	e.stations = make([]*station.State, e.city.Stations.Len())
	for i := 0; i < e.city.Stations.Len(); i++ {
		e.stations[i] = station.NewState(e.city.Stations.Station(i))
	}
	e.peSlot = -1
	e.obs.reset()
	e.pending = nil
	e.closedNow = make([]bool, len(e.stations))
	e.applyBatteryFactors()
	if e.opts.LearnedForecast {
		p, err := forecast.New(e.city.Partition.Len(), e.city.SlotsPerDay())
		if err != nil {
			panic("sim: " + err.Error())
		}
		e.predictor = p
	}
	e.res = Results{
		SlotMinutes:  e.slotLen,
		Accounts:     make([]TaxiAccount, len(e.taxis)),
		RegionDemand: make([]int, e.city.Partition.Len()),
		RegionServed: make([]int, e.city.Partition.Len()),
	}
	e.invalidActions = 0
	e.finalized = false
	e.generated = 0
}

// City returns the underlying synthetic city.
func (e *Env) City() *synth.City { return e.city }

// Now returns the current absolute simulation minute.
func (e *Env) Now() int { return e.nowMin }

// Slot returns the current absolute slot index.
func (e *Env) Slot() int { return e.nowMin / e.slotLen }

// SlotLen returns the slot length in minutes.
func (e *Env) SlotLen() int { return e.slotLen }

// HorizonMin returns the simulation horizon in absolute minutes.
func (e *Env) HorizonMin() int { return e.endMin }

// Done reports whether the horizon has been reached.
func (e *Env) Done() bool { return e.nowMin >= e.endMin }

// InvalidActions returns how many submitted actions violated the mask and
// were coerced (0 for well-behaved policies).
func (e *Env) InvalidActions() int { return e.invalidActions }

// VacantTaxis returns the IDs of taxis awaiting a displacement decision
// this slot, ascending. The slice borrows an environment-owned buffer that
// the next VacantTaxis call (including the one inside Step) rewrites —
// within one slot every call produces identical contents, so holding it
// across a single Step is safe, but callers keeping IDs longer must copy.
func (e *Env) VacantTaxis() []int {
	out := e.vacantBuf[:0]
	for i := range e.taxis {
		if e.taxis[i].state == Cruising {
			out = append(out, i)
		}
	}
	e.vacantBuf = out
	return out
}

// TaxiRegion returns the current region of a taxi.
func (e *Env) TaxiRegion(id int) int { return e.taxis[id].region }

// TaxiSoC returns the current state of charge of a taxi.
func (e *Env) TaxiSoC(id int) float64 { return e.taxis[id].batt.SoC }

// TaxiState returns the state of a taxi.
func (e *Env) TaxiState(id int) TaxiState { return e.taxis[id].state }

// NearStations returns the cached KStations nearest stations for a region.
func (e *Env) NearStations(region int) []geo.Neighbor { return e.nearStations[region] }

// StationState returns the runtime state of a station (read-only use).
func (e *Env) StationState(id int) *station.State { return e.stations[id] }

// ValidMask returns the action-validity mask for a taxi: charging is forced
// below LowSoC, offered below AllowChargeSoC, and move actions exist only
// for real neighbors.
func (e *Env) ValidMask(id int) [NumActions]bool {
	t := &e.taxis[id]
	return e.masks[t.region].pick(t.batt.SoC, &e.opts)
}

// Step applies one displacement action per vacant taxi (missing entries
// default to Stay), generates and matches the slot's passenger demand, and
// advances the world by one time slot. It panics if the episode is done.
func (e *Env) Step(actions map[int]Action) {
	if e.Done() {
		panic("sim: Step after Done")
	}
	slotStart := e.nowMin
	slotEnd := slotStart + e.slotLen

	// Clear per-slot profit accumulators.
	for i := range e.taxis {
		e.taxis[i].slotProfit = 0
	}

	// 1. Apply displacement actions to vacant taxis. Off-duty taxis hold
	// position instead — unless forced charging applies (a shift change
	// never strands a taxi), in which case the action proceeds and the
	// mask coercion below steers it to a charger.
	ids := e.VacantTaxis()
	for _, id := range ids {
		a, ok := actions[id]
		if !ok {
			a = Action{Kind: Stay}
		}
		if e.offDuty(id, slotStart) && e.taxis[id].batt.SoC >= e.opts.LowSoC {
			a = Action{Kind: Stay}
			e.tel.offDutyHolds.Inc()
		}
		e.applyAction(id, a)
	}

	// 2. Generate this slot's requests (under any scenario demand scaling),
	// expire pending ones whose patience ran out, and match the rest
	// oldest-first.
	// Per-region sampling through a reused buffer; looping one source over
	// regions in order with the hook factor inline is exactly
	// Demand.SampleScaled (same draws, same order), minus its per-slot
	// allocations. pending copies the requests out, so reuse is safe.
	reqs := e.reqBuf[:0]
	for region, n := 0, e.city.Partition.Len(); region < n; region++ {
		factor := 1.0
		if e.hooks != nil {
			factor = e.hooks.DemandScale(region, slotStart)
		}
		reqs = e.city.Demand.SampleRegionScaled(reqs, e.demandSrc, region, slotStart, e.slotLen, factor)
	}
	e.reqBuf = reqs
	e.generated += len(reqs)
	for i := range reqs {
		e.res.RegionDemand[reqs[i].OriginRegion]++
	}
	if e.hooks != nil {
		for i := range reqs {
			if f := e.hooks.FareScale(reqs[i].OriginRegion, reqs[i].TimeMin); f != 1 && f >= 0 {
				reqs[i].Fare *= f
			}
		}
	}
	if e.predictor != nil {
		n := e.city.Partition.Len()
		if cap(e.fcCounts) < n {
			e.fcCounts = make([]float64, n)
		}
		counts := e.fcCounts[:n]
		for i := range counts {
			counts[i] = 0
		}
		for _, r := range reqs {
			counts[r.OriginRegion]++
		}
		slot := slotStart / e.slotLen
		for r, c := range counts {
			e.predictor.Observe(r, slot, c)
		}
	}
	e.pending = append(e.pending, reqs...)
	alive := e.pending[:0]
	for _, r := range e.pending {
		if r.TimeMin+e.opts.PatienceMin < slotStart {
			e.res.UnservedRequests++
			e.tel.abandonments.Inc()
			continue
		}
		alive = append(alive, r)
	}
	e.pending = alive
	// sort.Sort over a persistent sort.Interface applies the same pdqsort as
	// sort.Slice (identical comparison/swap sequence) without the per-call
	// closure and swapper allocations.
	e.pendSort.rs = e.pending
	sort.Sort(&e.pendSort)
	e.pendSort.rs = nil
	e.pending = e.matchRequests(e.pending)

	// 3. Advance the world minute by minute. Station perturbations (outage
	// edges, derate changes, queue evictions) apply first so taxis arriving
	// in the same minute see the already-updated station state.
	for m := slotStart; m < slotEnd; m++ {
		e.applyStationPerturbations(m)
		e.advanceMinute(m)
	}

	// 4. Drain crawl energy for taxis still cruising, so the low-SoC
	// trigger fires on time rather than retroactively.
	for i := range e.taxis {
		if e.taxis[i].state == Cruising {
			e.accrueCrawl(&e.taxis[i], slotEnd)
		}
	}
	e.nowMin = slotEnd
	e.tel.slots.Inc()
	warmupEnd := e.opts.WarmupDays * 24 * 60
	if slotEnd > warmupEnd {
		e.res.Slots++
	}
	if slotEnd == warmupEnd {
		e.clearAccounting()
	}
	e.peSlot = -1 // invalidate the per-slot PE cache

	if e.Done() {
		e.finalize()
	}
}

// clearAccounting wipes all ledgers at the warmup boundary while keeping
// the physical fleet state (positions, batteries, queues, pending demand),
// so metrics cover steady-state operation only.
func (e *Env) clearAccounting() {
	now := e.nowMin
	for i := range e.taxis {
		t := &e.taxis[i]
		t.acct = TaxiAccount{}
		t.slotProfit = 0
		if t.vacantSinceMin < now {
			t.vacantSinceMin = now
		}
		if t.crawlFromMin < now {
			t.crawlFromMin = now
		}
		if t.pickupMin < now {
			t.pickupMin = now
		}
		if t.departMin < now {
			t.departMin = now
		}
		if t.plugMin < now {
			t.plugMin = now
		}
		// Bill only the post-warmup share of an in-progress session.
		t.chargeEnergy = 0
		t.chargeCost = 0
		t.chargeSoC0 = t.batt.SoC
	}
	e.res = Results{
		SlotMinutes:  e.slotLen,
		Accounts:     make([]TaxiAccount, len(e.taxis)),
		RegionDemand: make([]int, e.city.Partition.Len()),
		RegionServed: make([]int, e.city.Partition.Len()),
	}
}

// applyAction executes a displacement decision for taxi id, coercing
// mask-invalid submissions to the nearest legal equivalent.
func (e *Env) applyAction(id int, a Action) {
	t := &e.taxis[id]
	mask := e.ValidMask(id)

	idx := -1
	switch a.Kind {
	case Stay:
		idx = 0
	case Move:
		if a.Arg >= 0 && a.Arg < MaxNeighbors {
			idx = 1 + a.Arg
		}
	case Charge:
		if a.Arg >= 0 && a.Arg < KStations {
			idx = 1 + MaxNeighbors + a.Arg
		}
	}
	if idx < 0 || !mask[idx] {
		e.invalidActions++
		// Coerce: if charging is forced, go to the nearest station;
		// otherwise stay.
		if t.batt.SoC < e.opts.LowSoC {
			a = Action{Kind: Charge, Arg: 0}
		} else {
			a = Action{Kind: Stay}
		}
	}

	switch a.Kind {
	case Stay:
		// Nothing: the taxi keeps cruising in place.
	case Move:
		nbs := e.city.Partition.Region(t.region).Neighbors
		dest := nbs[a.Arg]
		distKm := e.city.Partition.Distance(t.region, dest) * demand.RoadFactor
		travelMin := e.travelMinutes(distKm, t.region, e.nowMin)
		// Crawl energy up to now is settled, then the relocation drive is
		// paid in full; the taxi is unmatchable until it arrives. Seek time
		// keeps accruing — relocation is still cruising.
		e.accrueCrawl(t, e.nowMin)
		e.driveTracked(t, distKm)
		e.record(trace.Event{TimeMin: e.nowMin, Taxi: t.id, Region: t.region, Kind: trace.EvMove, A: dest, B: -1})
		e.tel.relocations.Inc()
		t.state = Relocating
		t.arriveMin = e.nowMin + travelMin
		// The hop's energy is paid in full above; crawl resumes at arrival.
		t.crawlFromMin = t.arriveMin
		t.region = dest
	case Charge:
		ns := e.nearStations[t.region]
		st := ns[a.Arg]
		distKm := st.DistKm * demand.RoadFactor
		travelMin := e.travelMinutes(distKm, t.region, e.nowMin)
		// Close the cruise segment: seeking ends, idle begins (t3).
		e.flushCruise(t, e.nowMin)
		e.accrueCrawl(t, e.nowMin)
		e.driveTracked(t, distKm)
		e.record(trace.Event{TimeMin: e.nowMin, Taxi: t.id, Region: t.region, Kind: trace.EvChargeSeek, A: st.Label, B: -1})
		t.state = ToStation
		t.stationID = st.Label
		t.departMin = e.nowMin
		t.arriveMin = e.nowMin + travelMin
		t.balkCount = 0
		t.region = e.city.Stations.Station(st.Label).Region
	}
}

func (e *Env) hourAt(min int) int { return hourAt(min) }

// hourAt returns the hour of day of an absolute minute.
func hourAt(min int) int { return (min / 60) % 24 }

// travelMinutes converts a road distance to whole driving minutes at the
// traffic speed of minute m in the given region, with a one-minute floor.
// The region matters only under a weather perturbation.
func (e *Env) travelMinutes(distKm float64, region, m int) int {
	if s := e.speedScale(region, m); s != 1 {
		return travelMinutesScaled(distKm, m, s)
	}
	return travelMinutesAt(distKm, m)
}

// travelMinutesAt is the engine-independent travel-time rule; both the
// sequential Env and the sharded kernel use it.
func travelMinutesAt(distKm float64, m int) int {
	travelMin := int(math.Ceil(distKm / demand.SpeedKmh(hourAt(m)) * 60))
	if travelMin < 1 {
		travelMin = 1
	}
	return travelMin
}

// travelMinutesScaled is travelMinutesAt under a weather speed multiplier.
// Kept as a separate function so the clean path divides by the exact same
// float as before extended hooks existed.
func travelMinutesScaled(distKm float64, m int, scale float64) int {
	travelMin := int(math.Ceil(distKm / (demand.SpeedKmh(hourAt(m)) * scale) * 60))
	if travelMin < 1 {
		travelMin = 1
	}
	return travelMin
}

// geoDistKm returns the road distance between two points.
func geoDistKm(a, b geo.Point) float64 { return geo.Distance(a, b) * demand.RoadFactor }

// driveTracked consumes energy for km kilometres, accounting the distance
// and any energy deficit from an empty pack exactly.
func (e *Env) driveTracked(t *taxi, km float64) { driveTracked(t, km) }

func driveTracked(t *taxi, km float64) {
	if km <= 0 {
		return
	}
	need := km * t.batt.ConsumptionPerKm
	got := t.batt.Drive(km)
	t.acct.DistanceKm += km
	if need > got {
		t.acct.EnergyDeficitKWh += need - got
	}
}

// flushCruise closes the open cruise (seek-time) segment of a vacant taxi
// at minute m. Time only; crawl energy accrues via accrueCrawl.
func (e *Env) flushCruise(t *taxi, m int) { flushCruise(t, m) }

func flushCruise(t *taxi, m int) {
	if mins := float64(m - t.vacantSinceMin); mins > 0 {
		t.acct.CruiseMin += mins
	}
	t.vacantSinceMin = m
}

// accrueCrawl charges the crawl energy of a vacant taxi for the interval
// since the last accrual up to minute m.
func (e *Env) accrueCrawl(t *taxi, m int) { accrueCrawl(t, m, e.opts.CruiseSpeedKmh) }

func accrueCrawl(t *taxi, m int, cruiseSpeedKmh float64) {
	mins := float64(m - t.crawlFromMin)
	if mins <= 0 {
		return
	}
	t.crawlFromMin = m
	if t.batt.Empty() {
		t.acct.StrandedMin += mins
	}
	driveTracked(t, mins/60*cruiseSpeedKmh)
}

// matchRequests assigns waiting requests to cruising taxis in the same
// region, longest-waiting taxi first in request-time order (Section III-C:
// passengers are served by vacant taxis in the same region). It returns the
// requests left unmatched, which remain pending until their patience runs
// out.
func (e *Env) matchRequests(reqs []demand.Request) (unmatched []demand.Request) {
	// Bucket matchable taxis by region: cruising ones, plus relocating ones
	// at their destination (they can pick up once they arrive). The buckets
	// are dense (regions are small ints) and reused across slots; candidates
	// land in taxi-index order either way.
	if len(e.regionCands) != e.city.Partition.Len() {
		e.regionCands = make([][]int, e.city.Partition.Len())
	}
	byRegion := e.regionCands
	for r := range byRegion {
		byRegion[r] = byRegion[r][:0]
	}
	for i := range e.taxis {
		if s := e.taxis[i].state; s == Cruising || s == Relocating {
			if e.offDuty(i, e.nowMin) {
				continue // shift change: invisible to passengers this slot
			}
			byRegion[e.taxis[i].region] = append(byRegion[e.taxis[i].region], i)
		}
	}
	// Compact unmatched requests in place: the write index never passes the
	// read index, so the aliasing is safe, and the caller assigns the result
	// back over the same backing (e.pending).
	unmatched = reqs[:0]
	for _, req := range reqs {
		cands := byRegion[req.OriginRegion]
		// Pop the longest-waiting candidate (FIFO by vacantSince), a proxy
		// for "nearest" given intra-region uniformity, and fair by default.
		best, bestAt := -1, -1
		for pos, id := range cands {
			t := &e.taxis[id]
			if t.state != Cruising && t.state != Relocating {
				continue
			}
			if best < 0 || t.vacantSinceMin < e.taxis[best].vacantSinceMin {
				best, bestAt = id, pos
			}
		}
		if best < 0 {
			unmatched = append(unmatched, req)
			continue
		}
		// Remove from candidates.
		cands[bestAt] = cands[len(cands)-1]
		byRegion[req.OriginRegion] = cands[:len(cands)-1]
		e.serve(best, req)
	}
	return unmatched
}

// serve puts taxi id on the trip described by req.
func (e *Env) serve(id int, req demand.Request) {
	t := &e.taxis[id]
	// Approach: a short intra-region drive to the passenger. Matching
	// happens at slot boundaries, so the pickup is anchored at the later of
	// the request time and the current slot start.
	approachKm := e.matchSrc.Uniform(0.3, 1.5)
	speed := demand.SpeedKmh(e.hourAt(req.TimeMin))
	if s := e.speedScale(req.OriginRegion, req.TimeMin); s != 1 {
		speed *= s
	}
	approachMin := int(math.Ceil(approachKm / speed * 60))
	start := req.TimeMin
	if e.nowMin > start {
		start = e.nowMin
	}
	if t.state == Relocating && t.arriveMin > start {
		// Mid-relocation match: the pickup waits for the taxi's arrival.
		start = t.arriveMin
	}
	pickup := start + approachMin
	if pickup <= t.vacantSinceMin {
		pickup = t.vacantSinceMin + 1
	}
	cruiseMin := float64(pickup - t.vacantSinceMin)
	e.flushCruise(t, pickup)
	e.accrueCrawl(t, pickup)
	e.driveTracked(t, approachKm+req.DistanceKm)

	durMin := int(math.Ceil(req.DurationMin))
	if durMin < 1 {
		durMin = 1
	}
	t.state = Serving
	t.pickupMin = pickup
	t.tripEndMin = pickup + durMin
	t.tripDest = req.DestRegion

	t.acct.RevenueCNY += req.Fare
	t.acct.Trips++
	t.slotProfit += req.Fare
	e.tel.matches.Inc()
	e.record(trace.Event{TimeMin: pickup, Taxi: id, Region: req.OriginRegion, Kind: trace.EvPickup, A: req.DestRegion, B: -1, V: req.Fare})

	e.res.ServedRequests++
	e.res.RegionServed[req.OriginRegion]++
	e.res.TripStats = append(e.res.TripStats, TripStat{
		Taxi:             id,
		PickupMin:        pickup,
		CruiseMin:        cruiseMin,
		FareCNY:          req.Fare,
		DistanceKm:       req.DistanceKm,
		DurMin:           req.DurationMin,
		Region:           req.OriginRegion,
		DestRegion:       req.DestRegion,
		Pickup:           req.Origin,
		Dropoff:          req.Dest,
		FirstAfterCharge: t.afterCharge,
		ChargedAtStation: chargedStation(t),
	})
	t.afterCharge = false
}

func chargedStation(t *taxi) int {
	if t.afterCharge {
		return t.lastStation
	}
	return -1
}

// advanceMinute progresses every non-cruising taxi by one minute.
func (e *Env) advanceMinute(m int) {
	for i := range e.taxis {
		t := &e.taxis[i]
		switch t.state {
		case Serving:
			if m >= t.tripEndMin {
				t.acct.ServeMin += float64(t.tripEndMin - t.pickupMin)
				e.record(trace.Event{TimeMin: t.tripEndMin, Taxi: t.id, Region: t.tripDest, Kind: trace.EvDropoff, A: -1, B: -1})
				t.state = Cruising
				t.region = t.tripDest
				t.vacantSinceMin = t.tripEndMin
				t.crawlFromMin = t.tripEndMin
			}
		case ToStation:
			if m >= t.arriveMin {
				if e.stationClosed(t.stationID, m) || e.shouldBalk(t) {
					e.balk(t, m)
					break
				}
				t.balkCount = 0
				plugged := e.stations[t.stationID].Arrive(t.id)
				if plugged {
					e.beginCharge(t, m)
				} else {
					t.state = Queued
					e.tel.queueJoins.Inc()
					e.record(trace.Event{TimeMin: m, Taxi: t.id, Region: t.region, Kind: trace.EvQueue, A: t.stationID, B: -1})
				}
			}
		case ChargingState:
			e.chargeMinute(t, m)
		case Queued:
			// Waiting; promotion happens in beginCharge via Finish.
		case Relocating:
			if m >= t.arriveMin {
				t.state = Cruising
				// The relocation drive's energy is already paid; crawl
				// resumes from arrival.
				t.crawlFromMin = m
			}
		case Cruising:
			// Decisions and matching happen at slot granularity.
		}
	}
}

// shouldBalk reports whether the queue at t's target station is hopeless.
func (e *Env) shouldBalk(t *taxi) bool {
	if e.opts.BalkFactor < 0 || t.balkCount >= maxBalks {
		return false
	}
	st := e.stations[t.stationID]
	threshold := e.opts.BalkFactor * float64(st.Station().Points)
	if threshold < 3 {
		threshold = 3
	}
	return float64(st.QueueLen()) >= threshold
}

// balk redirects taxi t away from a hopeless queue (or a closed station),
// continuing the same idle window. The heavy lifting — including the
// all-stations-closed fallback — lives in replanCharge.
func (e *Env) balk(t *taxi, m int) {
	t.balkCount++
	e.tel.balks.Inc()
	e.replanCharge(t, m, trace.EvBalk)
}

// beginCharge marks the plug-in of taxi t at minute m.
func (e *Env) beginCharge(t *taxi, m int) {
	t.state = ChargingState
	t.plugMin = m
	// Drivers unplug anywhere between a quick top-up and a full pack;
	// the spread reproduces Fig. 3's session-length distribution (73.5%
	// in 45-120 min with tails on both sides).
	t.chargeTarget = t.batt.SoC + 0.3 + e.matchSrc.Uniform(0, 0.55)
	if t.chargeTarget > e.opts.ChargeTargetSoC+0.04 {
		t.chargeTarget = e.opts.ChargeTargetSoC + 0.04
	}
	// Keep the target reachable: the charger tapers to a stop at SoC 1.
	if t.chargeTarget > 0.99 {
		t.chargeTarget = 0.99
	}
	t.chargeSoC0 = t.batt.SoC
	t.chargeEnergy = 0
	t.chargeCost = 0
	idle := float64(m - t.departMin)
	t.acct.IdleMin += idle
	e.tel.idleMin.Observe(idle)
	e.res.ChargeStartsByHour[e.hourAt(m)]++
	e.record(trace.Event{TimeMin: m, Taxi: t.id, Region: t.region, Kind: trace.EvPlug, A: t.stationID, B: -1})
}

// chargeMinute advances one minute of charging for t at absolute minute m.
func (e *Env) chargeMinute(t *taxi, m int) {
	ch := e.city.Stations.Station(t.stationID).Charger
	delivered := ch.Charge(&t.batt, 1)
	rate := e.city.Tariff.Rate(e.city.Tariff.BandAt(m))
	if f := e.tariffScale(m); f != 1 {
		rate *= f
	}
	cost := delivered * rate
	t.chargeEnergy += delivered
	t.chargeCost += cost
	t.slotProfit -= cost
	if t.batt.SoC >= t.chargeTarget {
		e.finishCharge(t, m+1)
	}
}

// finishCharge unplugs taxi t at minute m, promotes the queue, and releases
// the taxi back to cruising in the station's region.
func (e *Env) finishCharge(t *taxi, m int) {
	promoted := e.stations[t.stationID].Finish(t.id)
	if promoted >= 0 {
		e.beginCharge(&e.taxis[promoted], m)
	}
	t.acct.ChargeMin += float64(m - t.plugMin)
	t.acct.ChargeCostCNY += t.chargeCost
	t.acct.EnergyKWh += t.chargeEnergy
	t.acct.ChargeEvents++
	e.tel.chargeSessions.Inc()
	e.tel.chargeMin.Observe(float64(m - t.plugMin))
	e.res.ChargeStats = append(e.res.ChargeStats, trace.ChargingEvent{
		VehicleID: t.id,
		StationID: t.stationID,
		ArriveMin: t.departMin,
		PlugMin:   t.plugMin,
		FinishMin: m,
		EnergyKWh: t.chargeEnergy,
		CostCNY:   t.chargeCost,
		StartSoC:  t.chargeSoC0,
		EndSoC:    t.batt.SoC,
	})
	e.record(trace.Event{TimeMin: m, Taxi: t.id, Region: e.city.Stations.Station(t.stationID).Region, Kind: trace.EvUnplug, A: t.stationID, B: -1, V: t.chargeEnergy})
	t.state = Cruising
	t.region = e.city.Stations.Station(t.stationID).Region
	t.vacantSinceMin = m
	t.crawlFromMin = m
	t.afterCharge = true
	t.lastStation = t.stationID
}

// finalize flushes open cruise segments and copies accounts into Results.
func (e *Env) finalize() {
	if e.finalized {
		return
	}
	e.finalized = true
	// Requests still waiting at the horizon are never served.
	e.res.UnservedRequests += len(e.pending)
	e.pending = nil
	for i := range e.taxis {
		t := &e.taxis[i]
		if t.state == Cruising {
			e.flushCruise(t, e.endMin)
			e.accrueCrawl(t, e.endMin)
		}
		// Taxis mid-trip/mid-charge at the horizon keep their open segment
		// unaccounted, matching how the paper truncates at period edges.
		e.res.Accounts[i] = t.acct
	}
}

// Results returns the accounting of the run as a snapshot that stays valid
// across later Reset/Step calls on the same environment. Calling it before
// Done reflects completed activity only.
func (e *Env) Results() *Results {
	snap := e.res
	if !e.finalized {
		snap.Accounts = make([]TaxiAccount, len(e.taxis))
		for i := range e.taxis {
			snap.Accounts[i] = e.taxis[i].acct
		}
	} else {
		snap.Accounts = append([]TaxiAccount(nil), e.res.Accounts...)
	}
	// Copy slice headers' backing data that later runs would otherwise
	// regrow in place.
	snap.TripStats = append([]TripStat(nil), e.res.TripStats...)
	snap.ChargeStats = append([]trace.ChargingEvent(nil), e.res.ChargeStats...)
	snap.RegionDemand = append([]int(nil), e.res.RegionDemand...)
	snap.RegionServed = append([]int(nil), e.res.RegionServed...)
	return &snap
}

// SlotProfit returns the net CNY earned by taxi id during the last Step.
func (e *Env) SlotProfit(id int) float64 { return e.taxis[id].slotProfit }

// peFloorMin stabilizes mid-run PE estimates: a taxi that has been on duty
// only a few minutes would otherwise report a wildly noisy CNY/h figure
// (one early fare → PE of hundreds), which destabilizes the fairness term
// of the learning reward. Final metrics use Results.PEs (exact Eq. 2); this
// floor applies only to the in-run estimates below.
const peFloorMin = 60.0

// PESoFar returns taxi id's cumulative profit efficiency (CNY/h) up to now,
// with the on-duty denominator floored at one hour for stability.
func (e *Env) PESoFar(id int) float64 {
	a := &e.taxis[id].acct
	d := a.OnDutyMin()
	if d < peFloorMin {
		d = peFloorMin
	}
	return a.ProfitCNY() / (d / 60)
}

// FleetPEStats returns the mean and variance of the (floored) cumulative PE
// across taxis that have been on duty — PF(t) of Eq. 3 evaluated mid-run.
// The result is cached per slot (the fleet is static between Steps); the
// two direct passes below add the same terms in the same index order as the
// original collect-then-sum implementation, so the values are bit-identical.
func (e *Env) FleetPEStats() (mean, variance float64) {
	if slot := e.Slot(); e.peSlot == slot {
		return e.peMean, e.peVar
	}
	var n int
	for i := range e.taxis {
		if e.taxis[i].acct.OnDutyMin() > 0 {
			mean += e.PESoFar(i)
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
		for i := range e.taxis {
			if e.taxis[i].acct.OnDutyMin() > 0 {
				d := e.PESoFar(i) - mean
				variance += d * d
			}
		}
		variance /= float64(n)
	}
	e.peSlot, e.peMean, e.peVar = e.Slot(), mean, variance
	return mean, variance
}

// reqsByTime orders requests by arrival minute. A persistent sort.Interface
// value lets Step sort pending requests without sort.Slice's per-call
// closure and reflect-swapper allocations.
type reqsByTime struct{ rs []demand.Request }

func (s *reqsByTime) Len() int           { return len(s.rs) }
func (s *reqsByTime) Less(i, j int) bool { return s.rs[i].TimeMin < s.rs[j].TimeMin }
func (s *reqsByTime) Swap(i, j int)      { s.rs[i], s.rs[j] = s.rs[j], s.rs[i] }
