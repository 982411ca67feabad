package sim

import (
	"repro/internal/geo"
	"repro/internal/trace"
)

// TaxiAccount is the cumulative ledger of one taxi over a run. PE (Eq. 1-2)
// is computed from it.
type TaxiAccount struct {
	RevenueCNY    float64
	ChargeCostCNY float64
	CruiseMin     float64
	ServeMin      float64
	IdleMin       float64
	ChargeMin     float64
	Trips         int
	ChargeEvents  int
	DistanceKm    float64
	EnergyKWh     float64 // energy drawn from chargers
	// EnergyDeficitKWh is the energy the taxi "should" have consumed but
	// could not because the pack was empty. Zero in healthy runs; positive
	// values indicate the policy let batteries run dry.
	EnergyDeficitKWh float64
	StrandedMin      float64 // minutes spent moving on an empty battery
}

// OnDutyMin returns total on-duty minutes (Σ T_cycle components).
func (a *TaxiAccount) OnDutyMin() float64 {
	return a.CruiseMin + a.ServeMin + a.IdleMin + a.ChargeMin
}

// ProfitCNY returns revenue minus charging cost.
func (a *TaxiAccount) ProfitCNY() float64 { return a.RevenueCNY - a.ChargeCostCNY }

// ProfitEfficiency returns the paper's PE: profit per on-duty hour (Eq. 2).
// Zero on-duty time yields zero.
func (a TaxiAccount) ProfitEfficiency() float64 {
	d := a.OnDutyMin()
	if d <= 0 {
		return 0
	}
	return a.ProfitCNY() / (d / 60)
}

// TripStat records one served trip for figure generation and for the
// synthetic transaction dataset.
type TripStat struct {
	Taxi       int
	PickupMin  int
	CruiseMin  float64 // seeking time before this pickup
	FareCNY    float64
	DistanceKm float64
	DurMin     float64
	Region     int // pickup region
	DestRegion int
	Pickup     geo.Point
	Dropoff    geo.Point
	// FirstAfterCharge marks the first trip following a charging event; its
	// CruiseMin is the paper's t_cruise^(1) (Figs. 5-6).
	FirstAfterCharge bool
	// ChargedAtStation is the station of the preceding charge when
	// FirstAfterCharge, else -1.
	ChargedAtStation int
}

// Results is the full accounting of one simulation run.
type Results struct {
	SlotMinutes int
	Slots       int // number of slots simulated
	Accounts    []TaxiAccount
	TripStats   []TripStat
	ChargeStats []trace.ChargingEvent
	// UnservedRequests counts demand that expired unmatched.
	UnservedRequests int
	ServedRequests   int
	// ChargeStartsByHour histograms plug-in events per hour of day (Fig. 4).
	ChargeStartsByHour [24]int
	// RegionDemand/RegionServed count generated and served requests per
	// origin region — the inputs of the spatial-fairness metrics (demand-
	// service ratio, F_spatial). Indexed by region; nil on results predating
	// the spatial analytics.
	RegionDemand []int
	RegionServed []int
}

// PEs returns per-taxi profit efficiencies, skipping taxis that never went
// on duty.
func (r *Results) PEs() []float64 {
	out := make([]float64, 0, len(r.Accounts))
	for _, a := range r.Accounts {
		if a.OnDutyMin() > 0 {
			out = append(out, a.ProfitEfficiency())
		}
	}
	return out
}

// FleetProfit returns total fleet profit in CNY.
func (r *Results) FleetProfit() float64 {
	var sum float64
	for _, a := range r.Accounts {
		sum += a.ProfitCNY()
	}
	return sum
}

// CruiseTimes returns the per-trip cruise times in minutes (Fig. 10 data).
func (r *Results) CruiseTimes() []float64 {
	out := make([]float64, len(r.TripStats))
	for i, ts := range r.TripStats {
		out[i] = ts.CruiseMin
	}
	return out
}

// IdleTimes returns the per-charge idle times in minutes (Fig. 12 data).
func (r *Results) IdleTimes() []float64 {
	out := make([]float64, len(r.ChargeStats))
	for i, cs := range r.ChargeStats {
		out[i] = float64(cs.IdleMin())
	}
	return out
}

// ChargeTimes returns per-charge plugged durations in minutes (Fig. 3 data).
func (r *Results) ChargeTimes() []float64 {
	out := make([]float64, len(r.ChargeStats))
	for i, cs := range r.ChargeStats {
		out[i] = float64(cs.ChargeMin())
	}
	return out
}

// FirstCruiseTimes returns the post-charge first cruise times t_cruise^(1)
// in minutes (Fig. 5 data), and the station each followed (Fig. 6 data).
func (r *Results) FirstCruiseTimes() (mins []float64, stations []int) {
	for _, ts := range r.TripStats {
		if ts.FirstAfterCharge {
			mins = append(mins, ts.CruiseMin)
			stations = append(stations, ts.ChargedAtStation)
		}
	}
	return mins, stations
}
