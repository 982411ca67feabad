package policy

import (
	"math"

	"repro/internal/checkpoint"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// TQL is the standard Tabular Q-Learning baseline [22]: the state is the
// paper's local view (time index × location index) plus a coarse battery
// bucket, the action space is the shared displacement space, and a single
// Q-table is learned across all agents with an ε-greedy policy. Its reward
// uses the same Eq. 5 blend as FairMove, which is why the paper reports it
// improving fairness despite its crude state.
type TQL struct {
	Alpha    float64 // reward blend α
	Gamma    float64 // discount β
	LR       float64 // Q-table learning rate
	Epsilon  float64 // exploration rate during training
	TimeBins int     // time-of-day buckets (default 24)
	// Shards is the engine shard count training runs on; 0 means 1. Any
	// value produces byte-identical results — it only changes wall-clock.
	Shards int

	q   map[tqlState][sim.NumActions]float64
	src *rng.Source
	// exploration switch: on during Train, off during evaluation.
	exploring bool

	// resume cursors: completed pretraining and fine-tuning episodes (see
	// the DQN fields of the same name).
	demoDone int
	epDone   int

	tel TrainTel
}

// SetTelemetry installs (or, with nil, removes) training telemetry under the
// "tql." prefix. The table learner has no gradients; GradNorm stays unused.
func (t *TQL) SetTelemetry(r *telemetry.Registry) { t.tel = NewTrainTel(r, "tql") }

type tqlState struct {
	timeBin int
	region  int
	lowSoC  bool
}

// tqlInitQ pessimistically initializes every action's value when a state is
// first touched. With the zero default, actions never tried would keep
// Q = 0 and outrank visited actions whose learned values are negative (all
// charging decisions cost money) — the tabular version of offline
// overestimation.
const tqlInitQ = -1.0

// entry returns the Q-row of st, creating it pessimistically initialized.
func (t *TQL) entry(st tqlState) [sim.NumActions]float64 {
	if qs, ok := t.q[st]; ok {
		return qs
	}
	var qs [sim.NumActions]float64
	for i := range qs {
		qs[i] = tqlInitQ
	}
	t.q[st] = qs
	return qs
}

// NewTQL returns an untrained TQL baseline with the paper's hyperparameters
// (α = 0.6, β = 0.9).
func NewTQL(alpha float64) *TQL {
	return &TQL{
		Alpha:    alpha,
		Gamma:    0.9,
		LR:       0.1,
		Epsilon:  0.05,
		TimeBins: 24,
		q:        make(map[tqlState][sim.NumActions]float64),
		src:      rng.New(0),
	}
}

// Name implements Policy.
func (t *TQL) Name() string { return "TQL" }

// BeginEpisode implements Policy.
func (t *TQL) BeginEpisode(seed int64) { t.src = rng.SplitStable(seed, "tql") }

func (t *TQL) stateOf(env sim.Environment, id int) tqlState {
	bins := t.TimeBins
	if bins <= 0 {
		bins = 24
	}
	minOfDay := env.Now() % (24 * 60)
	return tqlState{
		timeBin: minOfDay * bins / (24 * 60),
		region:  env.TaxiRegion(id),
		lowSoC:  env.TaxiSoC(id) < 0.35,
	}
}

// choose picks the ε-greedy best valid action for the state.
func (t *TQL) choose(st tqlState, mask [sim.NumActions]bool) int {
	valid := make([]int, 0, sim.NumActions)
	for i, ok := range mask {
		if ok {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return 0
	}
	if t.exploring && t.src.Bool(t.Epsilon) {
		return valid[t.src.Intn(len(valid))]
	}
	qs := t.entry(st)
	best, bestQ := valid[0], math.Inf(-1)
	for _, a := range valid {
		if qs[a] > bestQ {
			best, bestQ = a, qs[a]
		}
	}
	return best
}

// maxQ returns the maximum Q over valid actions of st.
func (t *TQL) maxQ(st tqlState, mask [sim.NumActions]bool) float64 {
	qs := t.entry(st)
	best := math.Inf(-1)
	for i, ok := range mask {
		if ok && qs[i] > best {
			best = qs[i]
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// Act implements Policy (greedy over the learned table).
func (t *TQL) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	actions := make(map[int]sim.Action, len(vacant))
	for _, id := range vacant {
		st := t.stateOf(env, id)
		idx := t.choose(st, env.ValidMask(id))
		actions[id] = sim.ActionFromIndex(idx)
	}
	return actions
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Episodes      int
	MeanReward    []float64 // per-episode mean decision reward
	FinalEpsilon  float64
	StatesVisited int
}

// Pretrain runs demonstration episodes driven by guide (typically the
// ground-truth driver policy) and applies off-policy Q-learning updates to
// the table — a warm start before on-policy Train.
func (t *TQL) Pretrain(city *synth.City, guide Policy, episodes, days int, seed int64) {
	_ = t.PretrainCheckpointed(city, guide, episodes, days, seed, checkpoint.TrainOptions{})
}

// PretrainCheckpointed is Pretrain with a checkpoint cadence, resuming past
// the demonstration episodes a loaded checkpoint already consumed.
func (t *TQL) PretrainCheckpointed(city *synth.City, guide Policy, episodes, days int, seed int64, opts checkpoint.TrainOptions) error {
	env := sim.New(city, sim.DefaultOptions(days), t.Shards, seed)
	for ep := t.demoDone; ep < episodes; ep++ {
		epSeed := DemoEpisodeSeed(seed, ep)
		env.Reset(epSeed)
		guide.BeginEpisode(epSeed)
		t.BeginEpisode(epSeed)
		type open struct {
			st  tqlState
			act int
		}
		pend := make(map[int]open)
		chooser := PolicyChooser(env, guide)
		RunEpisode(env, nil,
			func(id int, obs sim.Observation) int {
				idx := chooser(id, obs)
				pend[id] = open{st: t.stateOf(env, id), act: idx}
				return idx
			},
			t.Alpha, t.Gamma,
			func(id int, tr Transition) {
				o, ok := pend[id]
				if !ok {
					return
				}
				target := tr.Reward
				if !tr.Terminal {
					ns := t.stateOf(env, id)
					target += math.Pow(t.Gamma, float64(tr.Elapsed)) * t.maxQ(ns, tr.NextMask)
				}
				qs := t.entry(o.st)
				qs[o.act] += t.LR * (target - qs[o.act])
				t.q[o.st] = qs
			},
		)
		t.demoDone = ep + 1
		if opts.ShouldSave(t.demoDone, episodes) {
			if _, err := checkpoint.SaveDir(opts.Dir, t, opts.Keep); err != nil {
				return err
			}
		}
	}
	return nil
}

// Train runs episodes of Q-learning on city until `episodes` total episodes
// are complete. Each episode replays a fresh demand realization; transitions
// close at each taxi's next decision (semi-MDP) and update Q with the
// standard rule.
func (t *TQL) Train(city *synth.City, episodes, days int, seed int64) TrainStats {
	stats, _ := t.TrainCheckpointed(city, episodes, days, seed, checkpoint.TrainOptions{})
	return stats
}

// TrainCheckpointed is Train with a checkpoint cadence.
func (t *TQL) TrainCheckpointed(city *synth.City, episodes, days int, seed int64, opts checkpoint.TrainOptions) (TrainStats, error) {
	stats := TrainStats{Episodes: episodes}
	env := sim.New(city, sim.DefaultOptions(days), t.Shards, seed)
	for ep := t.epDone; ep < episodes; ep++ {
		epSeed := seed + int64(ep)
		env.Reset(epSeed)
		t.BeginEpisode(epSeed)
		t.exploring = true

		// Track per-decision states so transitions can be updated on close.
		type open struct {
			st  tqlState
			act int
		}
		pend := make(map[int]open)

		stopEp := t.tel.EpisodeTime.Start()
		mean := RunEpisode(env, nil,
			func(id int, obs sim.Observation) int {
				st := t.stateOf(env, id)
				idx := t.choose(st, obs.Mask)
				pend[id] = open{st: st, act: idx}
				return idx
			},
			t.Alpha, t.Gamma,
			func(id int, tr Transition) {
				o, ok := pend[id]
				if !ok {
					return
				}
				target := tr.Reward
				if !tr.Terminal {
					// The transition closes exactly when the environment sits
					// at the taxi's next decision, so the next state can be
					// read off the environment directly.
					ns := t.stateOf(env, id)
					target += math.Pow(t.Gamma, float64(tr.Elapsed)) * t.maxQ(ns, tr.NextMask)
				}
				qs := t.entry(o.st)
				qs[o.act] += t.LR * (target - qs[o.act])
				t.q[o.st] = qs
				t.tel.Transitions.Inc()
				t.tel.Steps.Inc()
			},
		)
		stopEp()
		t.tel.Episodes.Inc()
		t.tel.MeanReward.Set(mean)
		t.tel.Epsilon.Set(t.Epsilon)
		stats.MeanReward = append(stats.MeanReward, mean)
		t.epDone = ep + 1
		if opts.ShouldSave(t.epDone, episodes) {
			if _, err := checkpoint.SaveDir(opts.Dir, t, opts.Keep); err != nil {
				t.exploring = false
				return stats, err
			}
		}
	}
	t.exploring = false
	stats.FinalEpsilon = t.Epsilon
	stats.StatesVisited = len(t.q)
	return stats, nil
}
