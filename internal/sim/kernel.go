package sim

// The simulation engine. Core holds the world state (fleet, stations,
// demand, accounting) and splits the city's regions across K kernels (shard
// count, default 1); each kernel advances only the taxis it owns, so Step
// can run kernels concurrently within a slot and synchronize at
// deterministic barriers. Every RNG stream is split per region or per
// station, never per kernel, so the realization is identical for any K —
// shards=1 and shards=N produce byte-identical traces.
//
// Ownership rule: a taxi belongs to the kernel owning its current region.
// Region changes that can cross a shard cut happen at barriers only:
//
//	Charge/Move actions   retarget the region at apply time; the migrant is
//	                      routed serially right after the apply phase.
//	Balk/replan redirects retarget mid-minute; routed at the minute barrier
//	                      (arrival is ≥ m+1 away, so nothing is missed).
//	Dropoffs              set the trip destination; the now-cruising taxi is
//	                      routed at the end-of-slot barrier (it cannot be
//	                      matched or act before the next slot anyway).
//
// Time-driven transitions run off a per-kernel event calendar plus a sorted
// active-charging list, so a minute costs O(events) instead of an O(fleet)
// sweep. Stale wake-ups are tolerated: dispatch re-checks state and time.
//
// Two rules keep the trajectory independent of K. Every plug-in integrates
// its first charging minute at m+1, so a queue promotion never charges in
// the minute it was freed. Charge replanning reads queue pressure from a
// once-per-slot snapshot of every station rather than live values, because
// live reads of another shard's stations would depend on scheduling;
// balking still reads the (always-local) target station live.

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"repro/internal/demand"
	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/station"
	"repro/internal/synth"
	"repro/internal/trace"
)

// wakeCal is a calendar queue: one bucket of taxi IDs per simulation minute.
// Wake times are bounded by the horizon and the clock only moves forward, so
// push and drain are O(1) — no heap discipline needed. The sweep sorts each
// minute's due list by taxi ID anyway, so bucket insertion order never
// reaches the simulation and the drain order is identical to the (min, id)
// min-heap this replaces.
type wakeCal struct {
	buckets [][]int32
	head    int // first undrained minute
}

// reset sizes the calendar for a horizon of endMin minutes. Bucket backing
// arrays are kept across episodes.
func (w *wakeCal) reset(endMin int) {
	if len(w.buckets) < endMin+1 {
		w.buckets = append(w.buckets, make([][]int32, endMin+1-len(w.buckets))...)
	}
	for i := range w.buckets {
		w.buckets[i] = w.buckets[i][:0]
	}
	w.head = 0
}

// push schedules id at minute min. Past minutes land in the head bucket and
// wakes beyond the horizon park in the final bucket, which is never drained
// (finalize flushes open work) — both exactly as the heap behaved.
func (w *wakeCal) push(min, id int) {
	if min < w.head {
		min = w.head
	}
	if min >= len(w.buckets) {
		min = len(w.buckets) - 1
	}
	w.buckets[min] = append(w.buckets[min], int32(id))
}

// drainTo appends every ID due at minute m or earlier to due.
func (w *wakeCal) drainTo(due []int, m int) []int {
	if m >= len(w.buckets) {
		m = len(w.buckets) - 1
	}
	for ; w.head <= m; w.head++ {
		for _, id := range w.buckets[w.head] {
			due = append(due, int(id))
		}
		w.buckets[w.head] = w.buckets[w.head][:0]
	}
	return due
}

// ownSet tracks a kernel's owned taxi IDs as a bitmap over the fleet.
// Ownership churns on every cross-cut migration, and at full scale the
// memmove behind a sorted slice's insert/delete was the kernel's single
// hottest instruction; bitmap updates are O(1) and iteration walks the words
// in ascending ID order by construction.
type ownSet []uint64

func newOwnSet(n int) ownSet { return make(ownSet, (n+63)/64) }

func (s ownSet) add(id int)    { s[id>>6] |= 1 << uint(id&63) }
func (s ownSet) remove(id int) { s[id>>6] &^= 1 << uint(id&63) }

// forEach calls f for every member in ascending order.
func (s ownSet) forEach(f func(id int)) {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// kernel is the per-shard slice of the world: the taxis, regions, and
// stations one shard owns, plus its calendar and per-slot result buffers.
// All mutation of owned state happens here; the buffers are drained by
// Core.finishSlot under the slot barrier.
type kernel struct {
	c   *Core
	idx int

	regions    []int // owned region IDs, ascending (static)
	stationIDs []int // owned station IDs, ascending (static)

	owned       ownSet // owned taxi IDs
	cal         wakeCal
	charging    []int // taxis integrating charge, ascending
	pendingPlug []int // plugged this minute; first charge minute is m+1
	pending     map[int][]demand.Request
	outbox      []int // emigrants awaiting routeMigrants

	// scratch, reused across slots
	due          []int
	nextCharging []int
	cands        map[int][]int
	reqBuf       []demand.Request
	keyBuf       []uint64
	reqScratch   []demand.Request
	rateNow      float64 // tariff rate of the minute being swept

	// per-slot result buffers, drained serially in finishSlot
	events       []trace.Event
	trips        []TripStat
	charges      []trace.ChargingEvent
	served       int
	unserved     int
	generated    int
	invalid      int
	chargeStarts [24]int
}

// Core is the simulation engine: the shared world state plus the kernels
// that advance it. It implements Environment; Step sequences the phase
// methods (beginSlotApply, generateAndMatch, runMinute, endSlot — parallel
// per kernel) around the serial barriers (routeMigrants, snapshotLoads,
// finishSlot).
type Core struct {
	city *synth.City
	opts Options

	slotLen int
	nowMin  int
	endMin  int

	taxis    []taxi
	stations []*station.State
	// stationInfo aliases the network's static station slice so hot paths
	// index it in place instead of copying a Station per lookup.
	stationInfo []station.Station

	nearStations [][]geo.Neighbor
	masks        []regionMasks // per-region static action masks (ValidMask)

	regionOwner []int // region ID -> kernel index (static)
	taxiOwner   []int // taxi ID -> kernel index (updated at barriers)
	kernels     []*kernel

	demandSrc  []*rng.Source // per region
	matchSrc   []*rng.Source // per region
	stationSrc []*rng.Source // per station

	// loads is the once-per-slot queue-pressure snapshot every replanning
	// decision reads, local or not, so K=1 and K=N see the same numbers.
	loads     []float64
	closedNow []bool

	hooks     Hooks
	rec       Recorder
	tel       simTel
	ptel      phaseTel
	predictor *forecast.Predictor

	res            Results
	generated      int
	invalidActions int
	finalized      bool

	// per-slot PE statistics cache (state mutates only inside Step, so
	// anything keyed on the slot index stays valid between steps)
	peSlot  int
	peValid bool
	peMean  float64
	peVar   float64

	// obs holds the per-taxi feature buffers, the per-region context rows
	// and the per-slot inputs they share, behind Observe (see observe.go).
	obs obsState

	// merge scratch
	mergeTrips   []TripStat
	mergeCharges []trace.ChargingEvent
	mergeEvents  []trace.Event
	keyBuf       []uint64

	// Phase closures, allocated once: Step hands each phase to each as a
	// func value, and a closure literal built inside Step escapes — at one
	// allocation per phase per call that was the driver's entire
	// steady-state allocation budget. The closures read their per-call
	// parameters (actions, the minute cursor) from the two fields below,
	// which Step writes between barriers; under multi-shard fan-out the
	// writes happen-before the goroutine launches that read them.
	beginFn, genFn, minuteFn, endFn func(k int)
	stepActions                     map[int]Action
	stepMinute                      int

	// Reusable hot-path scratch: the VacantTaxis result buffer and
	// routeMigrants' gather slice.
	vacantBuf  []int
	migrantBuf []int

	// Arena blocks behind tripChunks/chargeChunks. Each slot's chunk is cut
	// from the current block; exhausted blocks stay alive through the chunks
	// that reference them while the arena moves on to a geometrically larger
	// block, so chunk storage costs amortized O(1) allocations per slot.
	tripArena   []TripStat
	chargeArena []trace.ChargingEvent

	// Per-slot stat chunks. Appending every slot's trips onto one long
	// slice costs an amortized-doubling memmove of the whole history; at
	// full scale that realloc traffic dominates finishSlot. Chunks bound
	// the copying to exactly twice per record: once into its chunk here,
	// once into the flat snapshot Results builds on demand.
	tripChunks   [][]TripStat
	chargeChunks [][]trace.ChargingEvent
	tripCount    int
	chargeCount  int
}

// New builds the simulation engine over city with the given shard count
// (clamped to [1, regions]; 0 means 1) and resets it with seed. Shards only
// change wall-clock: the trajectory is byte-identical for every count.
func New(city *synth.City, opts Options, shards int, seed int64) *Core {
	opts.fillDefaults()
	regionOwner := shard.Assign(city.Partition, shards)
	k := 0
	for _, o := range regionOwner {
		k = max(k, o+1)
	}
	c := &Core{
		city:        city,
		opts:        opts,
		slotLen:     city.Config.SlotMinutes,
		regionOwner: regionOwner,
	}
	n := city.Partition.Len()
	c.nearStations = make([][]geo.Neighbor, n)
	for r := 0; r < n; r++ {
		c.nearStations[r] = city.Stations.Nearest(city.Partition.Region(r).Centroid, KStations)
	}
	c.masks = newRegionMasks(city, c.nearStations)
	c.kernels = make([]*kernel, k)
	for i := range c.kernels {
		c.kernels[i] = &kernel{c: c, idx: i, cands: make(map[int][]int)}
	}
	for r := 0; r < n; r++ {
		kn := c.kernels[regionOwner[r]]
		kn.regions = append(kn.regions, r)
	}
	for sid := 0; sid < city.Stations.Len(); sid++ {
		kn := c.kernels[regionOwner[city.Stations.Station(sid).Region]]
		kn.stationIDs = append(kn.stationIDs, sid)
	}
	c.beginFn = func(k int) { c.beginSlotApply(k, c.stepActions) }
	c.genFn = c.generateAndMatch
	c.minuteFn = func(k int) { c.runMinute(k, c.stepMinute) }
	c.endFn = c.endSlot
	c.Reset(seed)
	return c
}

// Step applies one displacement action per vacant taxi (missing entries
// default to Stay), generates and matches the slot's passenger demand, and
// advances the world by one time slot. It panics if the episode is done.
// Each phase runs once per kernel between serial barriers:
//
//	apply actions   (parallel)  ─┐
//	route migrants  (barrier)    │ taxis retargeted across the cut
//	generate+match  (parallel)   │ per-region demand and match streams
//	snapshot loads  (barrier)    │ queue pressure for the slot's replans
//	per minute:                  │
//	  run minute    (parallel)   │ calendar + charging sweeps
//	  route migrants(barrier)    │ balk/replan redirects across the cut
//	end slot        (parallel)   │ crawl drain, dropoff migrants
//	route + finish  (barrier)   ─┘ canonical merge, clock advance
func (c *Core) Step(actions map[int]Action) {
	if c.Done() {
		panic("sim: Step after Done")
	}
	c.stepActions = actions
	stop := c.ptel.begin.Start()
	c.each(c.beginFn)
	stop()
	c.stepActions = nil
	stop = c.ptel.route.Start()
	c.routeMigrants()
	stop()
	stop = c.ptel.gen.Start()
	c.each(c.genFn)
	c.snapshotLoads()
	stop()
	start := c.nowMin
	for m := start; m < start+c.slotLen; m++ {
		c.stepMinute = m
		stop = c.ptel.minute.Start()
		c.each(c.minuteFn)
		stop()
		stop = c.ptel.route.Start()
		c.routeMigrants()
		stop()
	}
	stop = c.ptel.end.Start()
	c.each(c.endFn)
	stop()
	stop = c.ptel.route.Start()
	c.routeMigrants()
	c.finishSlot()
	stop()
}

// each runs a phase once per kernel, returning only after all finish.
// Kernels run inline, in order, when single-sharded or when the runtime has
// a single scheduler thread — phase results are independent of interleaving
// (that is the invariance battery's whole claim), and on one P the goroutine
// fan-out is pure barrier overhead. Otherwise it is one goroutine per
// kernel.
func (c *Core) each(f func(k int)) {
	k := len(c.kernels)
	if k == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < k; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// Shards returns the number of kernels.
func (c *Core) Shards() int { return len(c.kernels) }

// Reset restores the initial fleet and clears all accounting. The per-region
// and per-station RNG streams are reseeded from seed alone, so the same seed
// reproduces the same realization at any shard count.
func (c *Core) Reset(seed int64) {
	c.nowMin = 0
	c.endMin = (c.opts.WarmupDays + c.opts.Days) * 24 * 60
	n := c.city.Partition.Len()
	c.demandSrc = make([]*rng.Source, n)
	c.matchSrc = make([]*rng.Source, n)
	for r := 0; r < n; r++ {
		c.demandSrc[r] = rng.SplitStable(seed, "shard-demand-"+strconv.Itoa(r))
		c.matchSrc[r] = rng.SplitStable(seed, "shard-match-"+strconv.Itoa(r))
	}
	nS := c.city.Stations.Len()
	c.stationSrc = make([]*rng.Source, nS)
	for s := 0; s < nS; s++ {
		c.stationSrc[s] = rng.SplitStable(seed, "shard-station-"+strconv.Itoa(s))
	}
	c.taxis = make([]taxi, len(c.city.Fleet))
	for i, v := range c.city.Fleet {
		c.taxis[i] = taxi{
			id:             v.ID,
			state:          Cruising,
			region:         v.HomeRegion,
			batt:           c.city.NewBattery(v),
			vacantSinceMin: 0,
			crawlFromMin:   0,
			lastStation:    -1,
		}
	}
	c.stations = make([]*station.State, nS)
	for i := 0; i < nS; i++ {
		c.stations[i] = station.NewState(c.city.Stations.Station(i))
	}
	c.stationInfo = c.city.Stations.Stations()
	c.loads = make([]float64, nS)
	c.closedNow = make([]bool, nS)
	c.obs.reset()
	c.applyBatteryFactors()
	if c.opts.LearnedForecast {
		p, err := forecast.New(n, c.city.SlotsPerDay())
		if err != nil {
			panic("sim: " + err.Error())
		}
		c.predictor = p
	} else {
		c.predictor = nil
	}
	c.res = Results{
		SlotMinutes:  c.slotLen,
		Accounts:     make([]TaxiAccount, len(c.taxis)),
		RegionDemand: make([]int, n),
		RegionServed: make([]int, n),
	}
	// Truncate the chunk lists (keeping their backing arrays for the next
	// episode's appends) and reuse the current arena blocks from the top.
	// The stale headers past len pin last episode's arena blocks until they
	// are overwritten — bounded by one episode of chunks, and cheaper than
	// re-growing the lists every Reset.
	c.tripChunks = c.tripChunks[:0]
	c.chargeChunks = c.chargeChunks[:0]
	c.tripCount, c.chargeCount = 0, 0
	c.tripArena = c.tripArena[:0]
	c.chargeArena = c.chargeArena[:0]
	c.generated = 0
	c.invalidActions = 0
	c.finalized = false

	c.taxiOwner = make([]int, len(c.taxis))
	for _, kn := range c.kernels {
		kn.owned = newOwnSet(len(c.taxis))
		kn.cal.reset(c.endMin)
		kn.charging = kn.charging[:0]
		kn.pendingPlug = kn.pendingPlug[:0]
		// Keep the pending map and its per-region buckets across episodes:
		// the buckets are the match loop's working storage, and dropping
		// them re-pays their growth allocations every Reset.
		if kn.pending == nil {
			kn.pending = make(map[int][]demand.Request)
		}
		for r, s := range kn.pending {
			kn.pending[r] = s[:0]
		}
		kn.outbox = kn.outbox[:0]
		kn.events = kn.events[:0]
		kn.trips = kn.trips[:0]
		kn.charges = kn.charges[:0]
		kn.served, kn.unserved, kn.generated, kn.invalid = 0, 0, 0, 0
		kn.chargeStarts = [24]int{}
	}
	for i := range c.taxis {
		k := c.regionOwner[c.taxis[i].region]
		c.taxiOwner[i] = k
		c.kernels[k].owned.add(i)
	}
	c.peValid = false
}

// applyBatteryFactors scales each taxi's pack by its cohort factor and its
// consumption rate by the cohort's vehicle model.
func (c *Core) applyBatteryFactors() {
	if c.hooks == nil {
		return
	}
	for i := range c.taxis {
		b := c.city.NewBattery(c.city.Fleet[i])
		if f := c.hooks.BatteryFactor(i); f > 0 && f != 1 {
			b.CapacityKWh *= f
		}
		if f := c.hooks.ConsumptionFactor(i); f > 0 && f != 1 {
			b.ConsumptionPerKm *= f
		}
		c.taxis[i].batt = b
	}
}

// speedScale returns the hooks' travel-speed multiplier for a region at a
// minute, or exactly 1 when no hooks are installed.
func (c *Core) speedScale(region, minute int) float64 {
	if c.hooks == nil {
		return 1
	}
	if f := c.hooks.SpeedScale(region, minute); f > 0 {
		return f
	}
	return 1
}

// tariffScale returns the hooks' charging-price multiplier at a minute, or
// exactly 1 when no hooks are installed.
func (c *Core) tariffScale(minute int) float64 {
	if c.hooks == nil {
		return 1
	}
	if f := c.hooks.TariffScale(minute); f > 0 {
		return f
	}
	return 1
}

// offDuty reports whether the taxi sits out this minute on a shift change.
func (c *Core) offDuty(taxi, minute int) bool {
	return c.hooks != nil && c.hooks.OffDuty(taxi, minute)
}

// travelMinutes converts a road distance to whole driving minutes at the
// traffic speed of minute m in the given region, with a one-minute floor.
// The region matters only under a weather perturbation.
// An unperturbed scale is exactly 1, so the speed it multiplies is exact.
func (c *Core) travelMinutes(distKm float64, region, m int) int {
	speed := demand.SpeedKmh(hourAt(m)) * c.speedScale(region, m)
	return max(int(math.Ceil(distKm/speed*60)), 1)
}

// stationClosed reports whether station rejects new arrivals at minute m.
func (c *Core) stationClosed(station, m int) bool {
	return c.hooks != nil && c.hooks.StationClosed(station, m)
}

// --- Environment read surface ------------------------------------------------

// City returns the underlying synthetic city.
func (c *Core) City() *synth.City { return c.city }

// Now returns the current absolute simulation minute.
func (c *Core) Now() int { return c.nowMin }

// Slot returns the current absolute slot index.
func (c *Core) Slot() int { return c.nowMin / c.slotLen }

// SlotLen returns the slot length in minutes.
func (c *Core) SlotLen() int { return c.slotLen }

// HorizonMin returns the simulation horizon in absolute minutes.
func (c *Core) HorizonMin() int { return c.endMin }

// Done reports whether the horizon has been reached.
func (c *Core) Done() bool { return c.nowMin >= c.endMin }

// InvalidActions returns how many submitted actions were mask-coerced.
func (c *Core) InvalidActions() int { return c.invalidActions }

// VacantTaxis returns the IDs of taxis awaiting a displacement decision
// this slot, ascending. The slice borrows an engine-owned buffer that the
// next VacantTaxis call rewrites — within one slot every call produces
// identical contents, so holding it across a single Step is safe, but
// callers keeping IDs longer must copy.
func (c *Core) VacantTaxis() []int {
	out := c.vacantBuf[:0]
	for i := range c.taxis {
		if c.taxis[i].state == Cruising {
			out = append(out, i)
		}
	}
	c.vacantBuf = out
	return out
}

// TaxiRegion returns the current region of a taxi.
func (c *Core) TaxiRegion(id int) int { return c.taxis[id].region }

// TaxiSoC returns the current state of charge of a taxi.
func (c *Core) TaxiSoC(id int) float64 { return c.taxis[id].batt.SoC }

// TaxiState returns the state of a taxi.
func (c *Core) TaxiState(id int) TaxiState { return c.taxis[id].state }

// NearStations returns the cached KStations nearest stations for a region.
func (c *Core) NearStations(region int) []geo.Neighbor { return c.nearStations[region] }

// StationState returns the runtime state of a station (read-only use).
func (c *Core) StationState(id int) *station.State { return c.stations[id] }

// SlotProfit returns the net CNY earned by taxi id during the last Step.
func (c *Core) SlotProfit(id int) float64 { return c.taxis[id].slotProfit }

// PESoFar returns taxi id's cumulative profit efficiency (CNY/h) up to now,
// with the on-duty denominator floored at one hour for stability.
func (c *Core) PESoFar(id int) float64 {
	a := &c.taxis[id].acct
	d := a.OnDutyMin()
	if d < peFloorMin {
		d = peFloorMin
	}
	return a.ProfitCNY() / (d / 60)
}

// FleetPEStats returns the mean and variance of the (floored) cumulative PE
// across taxis that have been on duty — PF(t) of Eq. 3 evaluated mid-run —
// cached per slot (accounts change only inside Step).
func (c *Core) FleetPEStats() (mean, variance float64) {
	slot := c.Slot()
	if c.peValid && c.peSlot == slot {
		return c.peMean, c.peVar
	}
	var n int
	for i := range c.taxis {
		if c.taxis[i].acct.OnDutyMin() > 0 {
			mean += c.PESoFar(i)
			n++
		}
	}
	if n == 0 {
		c.peMean, c.peVar, c.peSlot, c.peValid = 0, 0, slot, true
		return 0, 0
	}
	mean /= float64(n)
	for i := range c.taxis {
		if c.taxis[i].acct.OnDutyMin() > 0 {
			d := c.PESoFar(i) - mean
			variance += d * d
		}
	}
	variance /= float64(n)
	c.peMean, c.peVar, c.peSlot, c.peValid = mean, variance, slot, true
	return mean, variance
}

// ValidMask returns the action-validity mask for a taxi: charging is forced
// below LowSoC, offered below AllowChargeSoC, and move actions exist only
// for real neighbors.
func (c *Core) ValidMask(id int) [NumActions]bool {
	t := &c.taxis[id]
	return c.masks[t.region].pick(t.batt.SoC, &c.opts)
}

// SetHooks installs (or, with nil, removes) a perturbation engine. Call it
// before Reset: battery cohorts take effect when the fleet is rebuilt, and
// policy.Evaluate resets the environment before every run. On a fresh
// engine the fleet is re-derived at once, so cohorts apply even if the
// caller steps without another Reset. Hooks persist across Reset.
func (c *Core) SetHooks(h Hooks) {
	c.hooks = h
	if c.nowMin == 0 {
		c.applyBatteryFactors()
	}
}

// SetRecorder installs (or, with nil, removes) the event recorder. Events
// are buffered per kernel during a slot and emitted in canonical order at
// the slot barrier, so the stream is identical at any shard count.
func (c *Core) SetRecorder(r Recorder) { c.rec = r }

// Results returns the accounting of the run as a stable snapshot.
func (c *Core) Results() *Results {
	snap := c.res
	if !c.finalized {
		snap.Accounts = make([]TaxiAccount, len(c.taxis))
		for i := range c.taxis {
			snap.Accounts[i] = c.taxis[i].acct
		}
	} else {
		snap.Accounts = append([]TaxiAccount(nil), c.res.Accounts...)
	}
	snap.TripStats = make([]TripStat, 0, c.tripCount)
	for _, ch := range c.tripChunks {
		snap.TripStats = append(snap.TripStats, ch...)
	}
	snap.ChargeStats = make([]trace.ChargingEvent, 0, c.chargeCount)
	for _, ch := range c.chargeChunks {
		snap.ChargeStats = append(snap.ChargeStats, ch...)
	}
	snap.RegionDemand = append([]int(nil), c.res.RegionDemand...)
	snap.RegionServed = append([]int(nil), c.res.RegionServed...)
	return &snap
}

// --- Phase methods (parallel per kernel between barriers) --------------------

// beginSlotApply clears kernel k's per-slot profit accumulators and applies
// one displacement action per owned vacant taxi (missing entries default to
// Stay). Safe to run concurrently across kernels: it touches only owned
// taxis and the kernel's own buffers.
func (c *Core) beginSlotApply(k int, actions map[int]Action) {
	kn := c.kernels[k]
	kn.owned.forEach(func(id int) {
		// One fused scan: applyAction touches only the acting taxi, so
		// clearing each taxi's accumulator just before its own action is
		// equivalent to a separate clear pass.
		c.taxis[id].slotProfit = 0
		if c.taxis[id].state != Cruising {
			return
		}
		a, ok := actions[id]
		if !ok {
			a = Action{Kind: Stay}
		}
		// Off-duty taxis hold position — unless forced charging applies (a
		// shift change never strands a taxi), in which case the action
		// proceeds and the mask coercion steers it to a charger.
		if c.offDuty(id, c.nowMin) && c.taxis[id].batt.SoC >= c.opts.LowSoC {
			a = Action{Kind: Stay}
			c.tel.offDutyHolds.Inc()
		}
		kn.applyAction(id, a)
	})
}

// generateAndMatch samples kernel k's per-region demand for the slot,
// expires stale requests, and matches the rest oldest-first within each
// region. Regions are processed in ascending ID order; each draws from its
// own demand and match streams, so the outcome is independent of K.
func (c *Core) generateAndMatch(k int) {
	kn := c.kernels[k]
	slotStart := c.nowMin
	slot := slotStart / c.slotLen

	for r, s := range kn.cands {
		kn.cands[r] = s[:0]
	}
	kn.owned.forEach(func(id int) {
		if s := c.taxis[id].state; s == Cruising || s == Relocating {
			if c.offDuty(id, slotStart) {
				return // shift change: invisible to passengers this slot
			}
			r := c.taxis[id].region
			kn.cands[r] = append(kn.cands[r], id)
		}
	})

	for _, r := range kn.regions {
		factor := 1.0
		if c.hooks != nil {
			factor = c.hooks.DemandScale(r, slotStart)
		}
		kn.reqBuf = c.city.Demand.SampleRegionScaled(kn.reqBuf[:0], c.demandSrc[r], r, slotStart, c.slotLen, factor)
		reqs := kn.reqBuf
		// Region r is owned by exactly this kernel, so the per-region demand
		// tally is a race-free direct write.
		c.res.RegionDemand[r] += len(reqs)
		if c.hooks != nil {
			for i := range reqs {
				if f := c.hooks.FareScale(reqs[i].OriginRegion, reqs[i].TimeMin); f != 1 && f >= 0 {
					reqs[i].Fare *= f
				}
			}
		}
		if c.predictor != nil {
			// Observe every owned region every slot, zeros included: the
			// predictor's EWMA semantics require the full sequence.
			c.predictor.Observe(r, slot, float64(len(reqs)))
		}
		kn.generated += len(reqs)

		pend := append(kn.pending[r], reqs...)
		// Expire and order in one pass over packed (TimeMin, arrival index)
		// keys — the sort moves 8-byte keys instead of 130-byte requests,
		// and the index tiebreak keeps equal times in arrival order. The
		// survivors are gathered into scratch so the pending buffer's own
		// storage is free to take back the unmatched remainder.
		kn.keyBuf = kn.keyBuf[:0]
		for i := range pend {
			if pend[i].TimeMin+c.opts.PatienceMin < slotStart {
				kn.unserved++
				c.tel.abandonments.Inc()
				continue
			}
			kn.keyBuf = append(kn.keyBuf, uint64(pend[i].TimeMin)<<24|uint64(i))
		}
		slices.Sort(kn.keyBuf)
		kn.reqScratch = kn.reqScratch[:0]
		for _, key := range kn.keyBuf {
			kn.reqScratch = append(kn.reqScratch, pend[key&(1<<24-1)])
		}
		kn.pending[r] = kn.matchRegion(r, kn.reqScratch, pend[:0])
	}
}

// snapshotLoads records every station's queue pressure for the slot's
// replanning decisions. Serial: runs under the post-match barrier.
func (c *Core) snapshotLoads() {
	for i, st := range c.stations {
		c.loads[i] = float64(st.QueueLen() - st.Free())
	}
}

// runMinute advances kernel k's owned world by one minute: station
// perturbations first (so same-minute arrivals see updated state), then the
// merged calendar/charging sweep in ascending taxi ID, then activation of
// this minute's plug-ins.
func (c *Core) runMinute(k, m int) {
	kn := c.kernels[k]
	kn.beginMinute(m)
	kn.sweep(m)
	kn.activatePlugs()
}

// endSlot drains crawl energy for kernel k's cruising taxis and queues any
// whose region now belongs to another kernel (post-dropoff migrants) for
// routing at the slot barrier.
func (c *Core) endSlot(k int) {
	kn := c.kernels[k]
	slotEnd := c.nowMin + c.slotLen
	kn.owned.forEach(func(id int) {
		t := &c.taxis[id]
		if t.state == Cruising {
			accrueCrawl(t, slotEnd, c.opts.CruiseSpeedKmh)
		}
		if c.regionOwner[t.region] != kn.idx {
			kn.outbox = append(kn.outbox, id)
		}
	})
}

// routeMigrants moves every outboxed taxi to the kernel owning its current
// region, in ascending taxi ID order. Serial: runs only under barriers.
func (c *Core) routeMigrants() {
	all := c.migrantBuf[:0]
	for _, kn := range c.kernels {
		all = append(all, kn.outbox...)
		kn.outbox = kn.outbox[:0]
	}
	c.migrantBuf = all
	if len(all) == 0 {
		return
	}
	slices.Sort(all)
	for _, id := range all {
		c.kernels[c.taxiOwner[id]].removeOwned(id)
	}
	for _, id := range all {
		dst := c.kernels[c.regionOwner[c.taxis[id].region]]
		dst.adopt(id)
		c.taxiOwner[id] = dst.idx
	}
}

// finishSlot merges every kernel's slot buffers in canonical order, emits
// buffered events, advances the clock, and finalizes at the horizon.
// Serial: runs under the end-of-slot barrier.
func (c *Core) finishSlot() {
	slotEnd := c.nowMin + c.slotLen
	c.mergeTrips = c.mergeTrips[:0]
	c.mergeCharges = c.mergeCharges[:0]
	c.mergeEvents = c.mergeEvents[:0]
	for _, kn := range c.kernels {
		c.res.ServedRequests += kn.served
		c.res.UnservedRequests += kn.unserved
		c.generated += kn.generated
		c.invalidActions += kn.invalid
		kn.served, kn.unserved, kn.generated, kn.invalid = 0, 0, 0, 0
		for h, n := range kn.chargeStarts {
			c.res.ChargeStartsByHour[h] += n
		}
		kn.chargeStarts = [24]int{}
		c.mergeTrips = append(c.mergeTrips, kn.trips...)
		kn.trips = kn.trips[:0]
		c.mergeCharges = append(c.mergeCharges, kn.charges...)
		kn.charges = kn.charges[:0]
		c.mergeEvents = append(c.mergeEvents, kn.events...)
		kn.events = kn.events[:0]
	}
	// Canonical orders: (PickupMin, Taxi) and (FinishMin, VehicleID) are
	// unique keys (a taxi starts at most one trip, and finishes at most one
	// session, per minute), so the merged order is a total order independent
	// of kernel count. Sorting the records directly moves ~100-byte structs
	// on every comparison or swap (reflection swappers and generic
	// comparators both showed up as the merge's dominant cost at full
	// scale); instead sort packed (key, index) words and gather once into
	// the slot's chunk. Packing bounds: minutes < 2^20 (~694 days), IDs <
	// 2^24, records per slot < 2^20 — all far above any configured scale.
	if len(c.mergeTrips) > 0 {
		c.keyBuf = c.keyBuf[:0]
		for i := range c.mergeTrips {
			t := &c.mergeTrips[i]
			c.keyBuf = append(c.keyBuf, uint64(t.PickupMin)<<44|uint64(t.Taxi)<<20|uint64(i))
		}
		slices.Sort(c.keyBuf)
		var chunk []TripStat
		c.tripArena, chunk = cutChunk(c.tripArena, len(c.keyBuf))
		for j, key := range c.keyBuf {
			chunk[j] = c.mergeTrips[key&(1<<20-1)]
		}
		c.tripChunks = append(c.tripChunks, chunk)
		c.tripCount += len(chunk)
	}
	if len(c.mergeCharges) > 0 {
		c.keyBuf = c.keyBuf[:0]
		for i := range c.mergeCharges {
			ev := &c.mergeCharges[i]
			c.keyBuf = append(c.keyBuf, uint64(ev.FinishMin)<<44|uint64(ev.VehicleID)<<20|uint64(i))
		}
		slices.Sort(c.keyBuf)
		var chunk []trace.ChargingEvent
		c.chargeArena, chunk = cutChunk(c.chargeArena, len(c.keyBuf))
		for j, key := range c.keyBuf {
			chunk[j] = c.mergeCharges[key&(1<<20-1)]
		}
		c.chargeChunks = append(c.chargeChunks, chunk)
		c.chargeCount += len(chunk)
	}
	if c.rec != nil {
		evs := c.mergeEvents
		slices.SortStableFunc(evs, func(a, b trace.Event) int {
			if a.TimeMin != b.TimeMin {
				return a.TimeMin - b.TimeMin
			}
			if a.Taxi != b.Taxi {
				return a.Taxi - b.Taxi
			}
			if a.Kind != b.Kind {
				return int(a.Kind) - int(b.Kind)
			}
			if a.Region != b.Region {
				return a.Region - b.Region
			}
			if a.A != b.A {
				return a.A - b.A
			}
			if a.B != b.B {
				return a.B - b.B
			}
			switch {
			case a.V < b.V:
				return -1
			case a.V > b.V:
				return 1
			}
			return 0
		})
		for _, ev := range evs {
			c.rec(ev)
		}
	}

	c.nowMin = slotEnd
	c.tel.slots.Inc()
	warmupEnd := c.opts.WarmupDays * 24 * 60
	if slotEnd > warmupEnd {
		c.res.Slots++
	}
	if slotEnd == warmupEnd {
		c.clearAccounting()
	}
	c.peValid = false // invalidate the per-slot PE cache
	if c.Done() {
		c.finalize()
	}
}

// clearAccounting wipes all ledgers at the warmup boundary while keeping the
// physical fleet state (positions, batteries, queues, pending demand), so
// metrics cover steady-state operation only.
func (c *Core) clearAccounting() {
	now := c.nowMin
	for i := range c.taxis {
		t := &c.taxis[i]
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
		t.chargeEnergy = 0
		t.chargeCost = 0
		t.chargeSoC0 = t.batt.SoC
	}
	c.res = Results{
		SlotMinutes:  c.slotLen,
		Accounts:     make([]TaxiAccount, len(c.taxis)),
		RegionDemand: make([]int, c.city.Partition.Len()),
		RegionServed: make([]int, c.city.Partition.Len()),
	}
	c.tripChunks = c.tripChunks[:0]
	c.chargeChunks = c.chargeChunks[:0]
	c.tripCount, c.chargeCount = 0, 0
	c.tripArena = c.tripArena[:0]
	c.chargeArena = c.chargeArena[:0]
}

// cutChunk cuts an n-record chunk off the end of the arena, starting a fresh
// block of at least double the previous capacity when the current one cannot
// fit n more. A superseded block stays reachable only through the chunks
// already cut from it — nothing is copied — so chunk storage costs amortized
// O(1) allocations per slot. The chunk's capacity is clipped to its length,
// keeping later arena growth unreachable through it.
func cutChunk[T any](arena []T, n int) (newArena, chunk []T) {
	if cap(arena)-len(arena) < n {
		size := 2 * cap(arena)
		if size < n {
			size = n
		}
		if size < 64 {
			size = 64
		}
		arena = make([]T, 0, size)
	}
	at := len(arena)
	newArena = arena[: at+n : cap(arena)]
	return newArena, newArena[at : at+n : at+n]
}

// finalize flushes open cruise segments, counts never-served requests, and
// copies accounts into Results.
func (c *Core) finalize() {
	if c.finalized {
		return
	}
	c.finalized = true
	for _, kn := range c.kernels {
		for _, r := range kn.regions {
			c.res.UnservedRequests += len(kn.pending[r])
			// Truncate, don't nil: the bucket is the match loop's working
			// storage and the next episode re-pays its growth otherwise.
			kn.pending[r] = kn.pending[r][:0]
		}
	}
	for i := range c.taxis {
		t := &c.taxis[i]
		if t.state == Cruising {
			flushCruise(t, c.endMin)
			accrueCrawl(t, c.endMin, c.opts.CruiseSpeedKmh)
		}
		c.res.Accounts[i] = t.acct
		// A last-slot match can set its pickup past the horizon, and serve
		// accrues seek time up to the pickup: clip that overhang so no
		// account covers more than the horizon.
		if t.state == Serving && t.pickupMin > c.endMin {
			c.res.Accounts[i].CruiseMin -= float64(t.pickupMin - c.endMin)
		}
	}
}
