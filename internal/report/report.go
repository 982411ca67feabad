// Package report regenerates every table and figure of the paper's
// evaluation (Section IV) as formatted text plus raw series. Both the
// benchtab command and the root bench_test.go drive it, so the same code
// path produces the human-readable report and the benchmark measurements.
//
// Experiment index (see DESIGN.md §4): Figs. 3-8 are the data-driven
// findings computed from a ground-truth run; Figs. 10-16 and Tables II-III
// compare the six displacement strategies on identical demand; Table IV
// sweeps the fairness weight α.
package report

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Scale selects the experiment size.
type Scale int

// Experiment scales.
const (
	// ScaleSmall is for unit tests and quick smoke runs (seconds).
	ScaleSmall Scale = iota
	// ScaleDefault is the benchmark scale used in EXPERIMENTS.md (minutes).
	ScaleDefault
	// ScaleFull is the paper's full fleet (hours; -full runs only).
	ScaleFull
)

// Config sizes one report run.
type Config struct {
	Seed             int64
	Scale            Scale
	Days             int // evaluation horizon after warmup
	WarmupDays       int
	PretrainEpisodes int
	TrainEpisodes    int
	Alpha            float64
	// Workers bounds the goroutines used to train and evaluate strategies;
	// <= 0 means GOMAXPROCS. Results are byte-identical for any value.
	Workers int
	// Telemetry, when non-nil, aggregates metrics from every training and
	// evaluation run into the registry (the CLIs pass theirs for periodic
	// dumps) and captures a per-method snapshot in Bundle.Telemetry /
	// Bundle.ScenarioTelemetry. Each evaluation uses its own short-lived
	// registry so concurrent methods don't mix, then merges into this one.
	// Telemetry is write-only — nothing reads a metric back into the run —
	// so enabling it never changes results.
	Telemetry *telemetry.Registry
	// Scenario, when non-nil, conditions every evaluation with the fault
	// schedule (the -scenario flag of benchtab's gt-only mode). Validate
	// against the city before running; Run/RunGTOnly do so.
	Scenario *scenario.Spec
	// PolicyPath, when non-empty, warm-starts FairMove from a checkpoint
	// file (benchtab's -policy flag) instead of training it, so comparison
	// grids and scenario sweeps reload a trained artifact rather than pay
	// the training cost per run. The checkpoint must have been written under
	// the same core configuration (seed, α, hyperparameters); mismatches
	// fail closed.
	PolicyPath string
}

// WithTelemetry returns a copy of the Config with the registry installed.
func (c Config) WithTelemetry(r *telemetry.Registry) Config {
	c.Telemetry = r
	return c
}

// DefaultConfig returns the configuration for a scale.
func DefaultConfig(seed int64, scale Scale) Config {
	c := Config{
		Seed:             seed,
		Scale:            scale,
		Days:             2,
		WarmupDays:       1,
		PretrainEpisodes: 4,
		TrainEpisodes:    6,
		Alpha:            0.6,
	}
	if scale == ScaleSmall {
		c.Days = 1
		c.PretrainEpisodes = 1
		c.TrainEpisodes = 1
	}
	return c
}

// cityConfig maps a scale to a synthetic-city configuration.
func (c Config) cityConfig() synth.Config {
	switch c.Scale {
	case ScaleFull:
		return synth.FullScaleConfig(c.Seed)
	case ScaleSmall:
		return synth.Config{
			Seed: c.Seed, Regions: 40, Stations: 10, Fleet: 120,
			TripsPerDay: 15 * 120, SlotMinutes: 10,
		}
	default:
		return synth.Config{
			Seed: c.Seed, Regions: 75, Stations: 18, Fleet: 300,
			TripsPerDay: 15 * 300, SlotMinutes: 10,
		}
	}
}

// MethodNames is the report order of the compared strategies.
var MethodNames = []string{"GT", "SD2", "TQL", "DQN", "TBA", "FairMove"}

// Bundle holds everything needed to print the full report.
type Bundle struct {
	Config  Config
	City    *synth.City
	Results map[string]*sim.Results // by method name
	// AlphaRewards maps swept α values to the final-episode mean reward
	// (Table IV); AlphaPE and AlphaPF are the evaluated fleet metrics of
	// each α-trained policy. Populated by RunAlphaSweep.
	Alphas       []float64
	AlphaRewards []float64
	AlphaPE      []float64
	AlphaPF      []float64
	// Ablations maps ablation names to results (populated by RunAblations).
	Ablations map[string]*sim.Results

	// Scenarios maps scenario name → method → results under that fault
	// schedule, and ScenarioOrder preserves run order for formatting.
	// Populated by RunScenarios.
	Scenarios     map[string]map[string]*sim.Results
	ScenarioOrder []string

	// Telemetry maps method → the simulation-counter snapshot of its clean
	// evaluation; ScenarioTelemetry adds the same per scenario. Populated
	// only when Config.Telemetry is set; FormatTelemetry prints both and
	// diffs each scenario cell against the method's clean run.
	Telemetry         map[string]telemetry.Snapshot
	ScenarioTelemetry map[string]map[string]telemetry.Snapshot

	// policyCache retains the trained policies so ablations and scenario
	// runs can re-evaluate them under modified environments.
	policyCache map[string]policy.Policy
}

// simOptions returns the shared evaluation protocol.
func (c Config) simOptions() sim.Options {
	opts := sim.DefaultOptions(c.Days)
	opts.WarmupDays = c.WarmupDays
	return opts
}

// evaluate runs p on a fresh environment over the bundle's city.
func (c Config) evaluate(city *synth.City, p policy.Policy) *sim.Results {
	res, _ := c.evaluateTel(city, p)
	return res
}

// evaluateTel is evaluate plus conditioning and observability: the fault
// schedule in c.Scenario (if any) is attached to the fresh environment, and
// when c.Telemetry is set the run writes to a private registry whose final
// snapshot is returned and merged into c.Telemetry. The private registry
// keeps concurrent evaluations separable per method; its counters are pure
// functions of the trajectory, so the snapshot is deterministic.
func (c Config) evaluateTel(city *synth.City, p policy.Policy) (*sim.Results, telemetry.Snapshot) {
	env := sim.New(city, c.simOptions(), 1, c.Seed)
	if c.Scenario != nil {
		if _, err := scenario.Attach(env, c.Scenario); err != nil {
			// Run/RunGTOnly validate the spec against the city up front, so
			// this is a programmer error, not an input error.
			panic("report: " + err.Error())
		}
	}
	var reg *telemetry.Registry
	if c.Telemetry != nil {
		reg = telemetry.NewRegistry()
		env.SetTelemetry(reg)
	}
	res := policy.Evaluate(p, env, c.Seed+1000)
	snap := reg.Snapshot()
	c.Telemetry.Merge(snap)
	return res, snap
}

// BuildPolicies constructs and trains the six strategies with the shared
// teacher-guided protocol. Each learner trains on its own worker with its
// own teacher instance — the teacher re-derives all per-episode state from
// the episode seed, so separate instances demonstrate identical behavior
// and the result is byte-identical to the old shared-teacher serial loop
// for any worker count.
func (c Config) BuildPolicies(city *synth.City) map[string]policy.Policy {
	builders := []func() policy.Policy{
		func() policy.Policy { return policy.NewGroundTruth() },
		func() policy.Policy { return policy.NewSD2() },
		func() policy.Policy {
			tql := policy.NewTQL(c.Alpha)
			tql.SetTelemetry(c.Telemetry)
			tql.Pretrain(city, policy.NewCoordinator(), c.PretrainEpisodes, 1, c.Seed)
			tql.Train(city, c.TrainEpisodes, 1, c.Seed)
			return tql
		},
		func() policy.Policy {
			dqn := policy.NewDQN(c.Alpha, c.Seed)
			dqn.Workers = c.Workers
			dqn.SetTelemetry(c.Telemetry)
			dqn.Pretrain(city, policy.NewCoordinator(), c.PretrainEpisodes, 1, c.Seed)
			dqn.Train(city, (c.TrainEpisodes+1)/2, 1, c.Seed)
			return dqn
		},
		func() policy.Policy {
			tba := policy.NewTBA(c.Seed)
			tba.Workers = c.Workers
			tba.SetTelemetry(c.Telemetry)
			tba.Pretrain(city, policy.NewCoordinator(), c.PretrainEpisodes, 1, c.Seed)
			tba.Train(city, (c.TrainEpisodes+1)/2, 1, c.Seed)
			return tba
		},
		func() policy.Policy {
			ccfg := core.DefaultConfig(c.Alpha, c.Seed)
			ccfg.Workers = c.Workers
			fm, err := core.New(ccfg)
			if err != nil {
				panic("report: " + err.Error())
			}
			fm.SetTelemetry(c.Telemetry)
			if c.PolicyPath != "" {
				if _, err := checkpoint.ReadFile(c.PolicyPath, fm); err != nil {
					panic("report: load policy: " + err.Error())
				}
				return fm
			}
			fm.Pretrain(city, policy.NewCoordinator(), c.PretrainEpisodes, 1, c.Seed)
			fm.Train(city, c.TrainEpisodes, 1, c.Seed)
			return fm
		},
	}
	pols, _ := parallel.Map(context.Background(), c.Workers, len(builders),
		func(_ context.Context, i int) (policy.Policy, error) { return builders[i](), nil })
	out := make(map[string]policy.Policy, len(pols))
	for i, name := range MethodNames {
		out[name] = pols[i]
	}
	return out
}

// Run executes the whole comparison and returns the bundle.
func Run(cfg Config) (*Bundle, error) {
	city, err := synth.Build(cfg.cityConfig())
	if err != nil {
		return nil, err
	}
	if cfg.Scenario != nil {
		if err := scenario.ValidateFor(cfg.Scenario, city); err != nil {
			return nil, err
		}
	}
	pols := cfg.BuildPolicies(city)
	results, snaps := cfg.evaluateAll(city, pols)
	b := &Bundle{
		Config:      cfg,
		City:        city,
		Results:     results,
		Telemetry:   snaps,
		Ablations:   make(map[string]*sim.Results),
		policyCache: pols,
	}
	return b, nil
}

// evalCell pairs one evaluation's results with its telemetry snapshot so
// parallel fan-outs keep the two aligned per method.
type evalCell struct {
	res  *sim.Results
	snap telemetry.Snapshot
}

// evaluateAll evaluates every policy on its own worker and private
// environment, reducing into the results map in MethodNames order. The
// snapshot map is nil when telemetry is off.
func (c Config) evaluateAll(city *synth.City, pols map[string]policy.Policy) (map[string]*sim.Results, map[string]telemetry.Snapshot) {
	cells, _ := parallel.Map(context.Background(), c.Workers, len(MethodNames),
		func(_ context.Context, i int) (evalCell, error) {
			res, snap := c.evaluateTel(city, pols[MethodNames[i]])
			return evalCell{res: res, snap: snap}, nil
		})
	out := make(map[string]*sim.Results, len(cells))
	var snaps map[string]telemetry.Snapshot
	if c.Telemetry != nil {
		snaps = make(map[string]telemetry.Snapshot, len(cells))
	}
	for i, name := range MethodNames {
		out[name] = cells[i].res
		if snaps != nil {
			snaps[name] = cells[i].snap
		}
	}
	return out, snaps
}

// RunGTOnly executes just the ground-truth run (enough for Figs. 3-8).
func RunGTOnly(cfg Config) (*Bundle, error) {
	city, err := synth.Build(cfg.cityConfig())
	if err != nil {
		return nil, err
	}
	if cfg.Scenario != nil {
		if err := scenario.ValidateFor(cfg.Scenario, city); err != nil {
			return nil, err
		}
	}
	res, snap := cfg.evaluateTel(city, policy.NewGroundTruth())
	b := &Bundle{
		Config:    cfg,
		City:      city,
		Results:   map[string]*sim.Results{"GT": res},
		Ablations: make(map[string]*sim.Results),
	}
	if cfg.Telemetry != nil {
		b.Telemetry = map[string]telemetry.Snapshot{"GT": snap}
	}
	return b, nil
}

// RunAlphaSweep trains a fresh FairMove per α and records the final-episode
// mean decision reward (Table IV).
func (b *Bundle) RunAlphaSweep(alphas []float64) error {
	sorted := append([]float64(nil), alphas...)
	sort.Float64s(sorted)
	b.Alphas = sorted
	b.AlphaRewards = make([]float64, len(sorted))
	b.AlphaPE = make([]float64, len(sorted))
	b.AlphaPF = make([]float64, len(sorted))
	// Each α trains and evaluates on its own worker with a private FairMove
	// and teacher; the slices index by sorted-α position, so the sweep is
	// byte-identical for any worker count.
	return parallel.ForEach(context.Background(), b.Config.Workers, len(sorted),
		func(_ context.Context, i int) error {
			cfg := core.DefaultConfig(sorted[i], b.Config.Seed)
			cfg.Workers = b.Config.Workers
			fm, err := core.New(cfg)
			if err != nil {
				return err
			}
			fm.Pretrain(b.City, policy.NewCoordinator(), b.Config.PretrainEpisodes, 1, b.Config.Seed)
			st := fm.Train(b.City, b.Config.TrainEpisodes, 1, b.Config.Seed)
			if len(st.MeanReward) > 0 {
				b.AlphaRewards[i] = st.MeanReward[len(st.MeanReward)-1]
			}
			res := b.Config.evaluate(b.City, fm)
			b.AlphaPE[i] = metrics.FleetPE(res)
			b.AlphaPF[i] = metrics.ProfitFairness(res)
			return nil
		})
}

// RunScenarios re-evaluates every already-trained policy under each
// perturbation scenario, on identical fault schedules: specs are data, so
// method M and method N see byte-identical outages, surges, and dropouts.
// Results land in b.Scenarios[spec.Name][method]; FormatScenarioDeltas
// prints the per-scenario PE/PF deltas against the clean run. Requires a
// bundle built by Run or RunFull (the trained policies are reused, not
// retrained — scenario scores measure robustness, not adaptation).
func (b *Bundle) RunScenarios(specs []*scenario.Spec) error {
	if b.policyCache == nil {
		return fmt.Errorf("report: RunScenarios needs a bundle built by Run or RunFull")
	}
	for _, spec := range specs {
		if err := scenario.ValidateFor(spec, b.City); err != nil {
			return err
		}
	}
	if b.Scenarios == nil {
		b.Scenarios = make(map[string]map[string]*sim.Results)
	}
	methods := b.methodsPresent()
	// Fan out over (scenario, method) pairs; each cell owns a private env,
	// so the grid reduces identically for any worker count.
	n := len(specs) * len(methods)
	cells, err := parallel.Map(context.Background(), b.Config.Workers, n,
		func(_ context.Context, i int) (evalCell, error) {
			spec, method := specs[i/len(methods)], methods[i%len(methods)]
			cfg := b.Config
			cfg.Scenario = spec
			res, snap := cfg.evaluateTel(b.City, b.policyCache[method])
			return evalCell{res: res, snap: snap}, nil
		})
	if err != nil {
		return err
	}
	if b.Config.Telemetry != nil && b.ScenarioTelemetry == nil {
		b.ScenarioTelemetry = make(map[string]map[string]telemetry.Snapshot)
	}
	for si, spec := range specs {
		row := make(map[string]*sim.Results, len(methods))
		var snaps map[string]telemetry.Snapshot
		if b.Config.Telemetry != nil {
			snaps = make(map[string]telemetry.Snapshot, len(methods))
		}
		for mi, m := range methods {
			row[m] = cells[si*len(methods)+mi].res
			if snaps != nil {
				snaps[m] = cells[si*len(methods)+mi].snap
			}
		}
		b.Scenarios[spec.Name] = row
		if snaps != nil {
			b.ScenarioTelemetry[spec.Name] = snaps
		}
		b.ScenarioOrder = append(b.ScenarioOrder, spec.Name)
	}
	return nil
}

// FormatScenarioDeltas prints, for every scenario run, each method's PE
// and PF with the relative change against its own clean-run score — the
// robustness table of the scenario-conditioned evaluation.
func (b *Bundle) FormatScenarioDeltas() string {
	var sb strings.Builder
	sb.WriteString("Scenario-conditioned evaluation (Δ vs clean run)\n")
	for _, name := range b.ScenarioOrder {
		row := b.Scenarios[name]
		fmt.Fprintf(&sb, "  scenario %s:\n", name)
		for _, m := range b.methodsPresent() {
			res, ok := row[m]
			if !ok {
				continue
			}
			clean := b.Results[m]
			pe, pf := metrics.FleetPE(res), metrics.ProfitFairness(res)
			cpe, cpf := metrics.FleetPE(clean), metrics.ProfitFairness(clean)
			fsp, cfsp := metrics.SpatialFairness(res), metrics.SpatialFairness(clean)
			fmt.Fprintf(&sb, "    %-10s PE %8.2f (%+6.1f%%)   PF %10.2f (%+6.1f%%)   Fsp %5.3f (%+6.1f%%)\n",
				m, pe, pctDelta(cpe, pe), pf, pctDelta(cpf, pf), fsp, pctDelta(cfsp, fsp))
		}
	}
	return sb.String()
}

// FormatTelemetry prints each method's clean-run simulation counters and,
// for every scenario, the counter deltas against that method's clean
// snapshot — the mechanism companion to FormatScenarioDeltas' score table
// (a PE drop reads differently next to "abandonments +412, charge_sessions
// -97" than next to nothing). Returns "" when telemetry was off.
func (b *Bundle) FormatTelemetry() string {
	if len(b.Telemetry) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("Telemetry (per-evaluation simulation counters)\n")
	for _, m := range b.methodsPresent() {
		snap, ok := b.Telemetry[m]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "  %-10s %s\n", m, counterLine(snap))
	}
	for _, name := range b.ScenarioOrder {
		row := b.ScenarioTelemetry[name]
		if len(row) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  scenario %s (Δ counters vs clean):\n", name)
		for _, m := range b.methodsPresent() {
			snap, ok := row[m]
			if !ok {
				continue
			}
			fmt.Fprintf(&sb, "    %-10s %s\n", m, deltaLine(b.Telemetry[m], snap))
		}
	}
	return sb.String()
}

// counterLine formats a snapshot's counters as sorted name=value pairs.
func counterLine(s telemetry.Snapshot) string {
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, s.Counters[k]))
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}

// deltaLine formats the nonzero counter differences of cur minus clean.
func deltaLine(clean, cur telemetry.Snapshot) string {
	seen := make(map[string]struct{}, len(clean.Counters)+len(cur.Counters))
	for k := range clean.Counters {
		seen[k] = struct{}{}
	}
	for k := range cur.Counters {
		seen[k] = struct{}{}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		if d := cur.Counters[k] - clean.Counters[k]; d != 0 {
			parts = append(parts, fmt.Sprintf("%s%+d", k+"=", d))
		}
	}
	if len(parts) == 0 {
		return "(no change)"
	}
	return strings.Join(parts, " ")
}

// pctDelta returns the relative change from base to v in percent, or 0
// when the base is zero (nothing meaningful to normalize by).
func pctDelta(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

// nearestOnly wraps a policy, forcing every charge decision to the nearest
// station — the station-choice ablation.
type nearestOnly struct{ inner policy.Policy }

func (n nearestOnly) Name() string         { return n.inner.Name() + "-NearestOnly" }
func (n nearestOnly) BeginEpisode(s int64) { n.inner.BeginEpisode(s) }
func (n nearestOnly) Act(env sim.Environment, v []int) map[int]sim.Action {
	acts := n.inner.Act(env, v)
	for id, a := range acts {
		if a.Kind == sim.Charge {
			acts[id] = sim.Action{Kind: sim.Charge, Arg: 0}
		}
	}
	return acts
}

// RunAblations evaluates the design-choice ablations of DESIGN.md §5:
// fairness-aware assignment, queue-aware station choice, and the demand
// forecast feature.
func (b *Bundle) RunAblations() {
	cfg := b.Config

	coord := policy.NewCoordinator()
	b.Ablations["Coordinator"] = cfg.evaluate(b.City, coord)

	noFair := policy.NewCoordinator()
	noFair.FairShare = false
	b.Ablations["Coordinator-NoFair"] = cfg.evaluate(b.City, noFair)

	b.Ablations["Coordinator-NearestOnly"] = cfg.evaluate(b.City, nearestOnly{policy.NewCoordinator()})

	// Forecast ablation: the trained FairMove policy evaluated with the
	// forecast feature zeroed out of every observation. Re-training is not
	// needed — evaluating blind shows how much weight the policy put on
	// that feature.
	if p, ok := b.policyCache["FairMove"]; ok {
		opts := cfg.simOptions()
		opts.NoForecastFeature = true
		env := sim.New(b.City, opts, 1, cfg.Seed)
		b.Ablations["FairMove-NoForecast"] = policy.Evaluate(p, env, cfg.Seed+1000)
	}
}

// RunFull is Run plus the alpha sweep and ablations.
func RunFull(cfg Config, alphas []float64) (*Bundle, error) {
	b, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if len(alphas) > 0 {
		if err := b.RunAlphaSweep(alphas); err != nil {
			return nil, err
		}
	}
	b.RunAblations()
	return b, nil
}

// gt returns the ground-truth results, which every comparison references.
func (b *Bundle) gt() *sim.Results { return b.Results["GT"] }

// row formats one per-method line prefixed with the method name.
func row(name, body string) string { return fmt.Sprintf("  %-10s %s\n", name, body) }

func (b *Bundle) methodsPresent() []string {
	var out []string
	for _, m := range MethodNames {
		if _, ok := b.Results[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// FormatComparisonSummary prints the headline Comparison of every method.
func (b *Bundle) FormatComparisonSummary() string {
	var sb strings.Builder
	sb.WriteString("Headline comparison vs ground truth\n")
	g := b.gt()
	for _, m := range b.methodsPresent() {
		sb.WriteString("  " + metrics.Compare(m, g, b.Results[m]).String() + "\n")
	}
	return sb.String()
}

// cdfPoints formats an empirical CDF at fixed probes.
func cdfPoints(xs []float64, probes []float64) string {
	c := stats.NewCDF(xs)
	parts := make([]string, len(probes))
	for i, p := range probes {
		parts[i] = fmt.Sprintf("P(≤%.0fmin)=%.0f%%", p, c.At(p)*100)
	}
	return strings.Join(parts, " ")
}
