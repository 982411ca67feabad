// Package synth composes the substrate packages into a complete synthetic
// city: the 491-region partition, the 123-station charging network placed
// where demand is, the spatiotemporal demand model, the TOU tariff, and the
// fleet roster. It substitutes for the paper's proprietary Shenzhen datasets
// (see DESIGN.md §2); everything downstream consumes only the City value.
package synth

import (
	"fmt"

	"repro/internal/demand"
	"repro/internal/energy"
	"repro/internal/partition"
	"repro/internal/pricing"
	"repro/internal/rng"
	"repro/internal/station"
)

// Config sizes the synthetic city. The zero value is not usable; call
// DefaultConfig or FullScaleConfig.
type Config struct {
	Seed        int64
	Regions     int // paper: 491
	Stations    int // paper: 123
	Fleet       int // paper: 20,130
	TripsPerDay int // expected fleet-wide requests per day (paper: ~750k)
	SlotMinutes int // paper: 10
}

// DefaultConfig returns a laptop-scale city preserving the paper's ratios:
// the full region and station inventory with a 1,000-vehicle fleet and
// demand scaled proportionally (the paper's 23.2M trips over 31 days and
// 20,130 taxis is ≈37 trips/taxi/day).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Regions:     491,
		Stations:    123,
		Fleet:       1000,
		TripsPerDay: 37 * 1000,
		SlotMinutes: 10,
	}
}

// TestConfig returns a small city for unit tests.
func TestConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Regions:     60,
		Stations:    12,
		Fleet:       60,
		TripsPerDay: 37 * 60,
		SlotMinutes: 10,
	}
}

// MicroConfig returns the smallest usable city: the golden-trace harness
// runs full days under several scenarios and must stay fast in `go test
// -short`, and its fixture specs reference stations/regions by index, so
// the inventory here (4 stations, 12 regions) is part of the fixtures'
// contract.
func MicroConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Regions:     12,
		Stations:    4,
		Fleet:       24,
		TripsPerDay: 15 * 24,
		SlotMinutes: 10,
	}
}

// FullScaleConfig returns the paper's full scale (slow; used with -full
// benchmark runs only).
func FullScaleConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Regions:     491,
		Stations:    123,
		Fleet:       20130,
		TripsPerDay: 23_200_000 / 31,
		SlotMinutes: 10,
	}
}

// MegaScaleConfig returns a 10× extrapolation of the paper's fleet over the
// same region inventory — the `-benchscale=mega` tier that exists to show
// the engine's event-calendar scaling headroom beyond the paper
// (the report bundle is never run at this size, only engine stepping).
func MegaScaleConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Regions:     491,
		Stations:    123,
		Fleet:       201300,
		TripsPerDay: 10 * 23_200_000 / 31,
		SlotMinutes: 10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Regions < 4 {
		return fmt.Errorf("synth: Regions must be >= 4, got %d", c.Regions)
	}
	if c.Stations < 1 || c.Stations > c.Regions {
		return fmt.Errorf("synth: Stations must be in [1, Regions], got %d", c.Stations)
	}
	if c.Fleet < 1 {
		return fmt.Errorf("synth: Fleet must be positive, got %d", c.Fleet)
	}
	if c.TripsPerDay < 1 {
		return fmt.Errorf("synth: TripsPerDay must be positive, got %d", c.TripsPerDay)
	}
	if c.SlotMinutes < 1 || c.SlotMinutes > 60 || 1440%c.SlotMinutes != 0 {
		return fmt.Errorf("synth: SlotMinutes must divide 1440, got %d", c.SlotMinutes)
	}
	return nil
}

// Vehicle is one fleet roster entry.
type Vehicle struct {
	ID         int
	HomeRegion int     // where the shift starts
	InitialSoC float64 // state of charge at simulation start
}

// City is a fully constructed synthetic city.
type City struct {
	Config    Config
	Partition *partition.Partition
	Demand    *demand.Model
	Stations  *station.Network
	Tariff    *pricing.Tariff
	Fleet     []Vehicle
}

// SlotsPerDay returns the number of time slots per day (paper: T = 144).
func (c *City) SlotsPerDay() int { return 1440 / c.Config.SlotMinutes }

// Build constructs a City from cfg deterministically.
func Build(cfg Config) (*City, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	part, err := partition.Generate(cfg.Seed, cfg.Regions, partition.ShenzhenBBox)
	if err != nil {
		return nil, fmt.Errorf("synth: partition: %w", err)
	}
	dm := demand.NewShenzhenLike(cfg.Seed, part)

	// Calibrate demand volume to the requested trips per day.
	base := dm.TotalExpectedPerDay()
	if base <= 0 {
		return nil, fmt.Errorf("synth: demand model produced zero base volume")
	}
	dm.Scale = float64(cfg.TripsPerDay) / base

	// Place stations weighted by daily demand share so that infrastructure
	// follows ridership, as in the real deployment.
	seeds := make([]station.RegSeed, part.Len())
	for i := 0; i < part.Len(); i++ {
		var w float64
		for h := 0; h < 24; h++ {
			w += dm.Rate(i, h*60) * 60
		}
		seeds[i] = station.RegSeed{Region: i, Centroid: part.Region(i).Centroid, Weight: w}
	}
	// Scale point inventory with fleet size so queueing pressure matches the
	// paper's ratio (20,130 taxis : ~5,000 points ≈ 4:1).
	pointsTotal := cfg.Fleet / 4
	if pointsTotal < cfg.Stations {
		pointsTotal = cfg.Stations
	}
	minPts := pointsTotal / cfg.Stations / 2
	if minPts < 1 {
		minPts = 1
	}
	maxPts := pointsTotal*3/cfg.Stations/2 + 1
	net, err := station.Generate(cfg.Seed, station.GenerateOpts{
		Count:     cfg.Stations,
		MinPoints: minPts,
		MaxPoints: maxPts,
		Regions:   seeds,
	})
	if err != nil {
		return nil, fmt.Errorf("synth: stations: %w", err)
	}

	// Roster: vehicles start distributed proportionally to demand with
	// varied initial charge.
	src := rng.SplitStable(cfg.Seed, "fleet")
	weights := make([]float64, part.Len())
	for i := range weights {
		weights[i] = seeds[i].Weight
	}
	fleet := make([]Vehicle, cfg.Fleet)
	for i := range fleet {
		fleet[i] = Vehicle{
			ID:         i,
			HomeRegion: src.WeightedChoice(weights),
			InitialSoC: src.Uniform(0.5, 0.95),
		}
	}

	return &City{
		Config:    cfg,
		Partition: part,
		Demand:    dm,
		Stations:  net,
		Tariff:    pricing.Shenzhen(),
		Fleet:     fleet,
	}, nil
}

// NewBattery returns a fresh battery for vehicle v.
func (c *City) NewBattery(v Vehicle) energy.Battery {
	return energy.NewBYDe6(v.InitialSoC)
}
