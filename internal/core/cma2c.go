// Package core implements the paper's contribution: the FairMove
// displacement system built on a Centralized Multi-Agent Actor-Critic
// (CMA2C, Section III-D). One shared policy network (actor) and one shared
// value network (critic) serve every e-taxi agent; the critic is trained on
// the Bellman loss against a target network (Eq. 6-7) and the actor follows
// advantage-weighted policy gradients where the advantage is the TD error
// (Eq. 8-11, Algorithm 1). The reward blends profit efficiency and profit
// fairness with the weight α (Eq. 4-5).
package core

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Config holds the CMA2C hyperparameters. Defaults follow Section IV-A:
// Adam with learning rate 0.001 and discount β = 0.9; the weight α = 0.6 is
// the value the sensitivity study (Table IV) selects.
type Config struct {
	Alpha       float64 // efficiency/fairness blend α ∈ [0, 1]
	Gamma       float64 // discount β
	ActorLR     float64
	CriticLR    float64
	Hidden      []int   // hidden widths for both networks
	EntropyCoef float64 // exploration bonus on the actor
	Batch       int     // minibatch size for the M update iterations
	UpdateIters int     // M of Algorithm 1
	Seed        int64
	// Workers bounds the goroutines used for batched actor inference and
	// parallel demonstration rollouts; <= 0 means GOMAXPROCS. Any value
	// produces byte-identical results — it only changes wall-clock.
	Workers int
}

// DefaultConfig returns the paper's hyperparameters at repro scale.
func DefaultConfig(alpha float64, seed int64) Config {
	return Config{
		Alpha:       alpha,
		Gamma:       0.9,
		ActorLR:     0.001,
		CriticLR:    0.001,
		Hidden:      []int{64, 64},
		EntropyCoef: 0.002,
		Batch:       64,
		UpdateIters: 300,
		Seed:        seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha must be in [0,1], got %v", c.Alpha)
	}
	if c.Gamma < 0 || c.Gamma >= 1 {
		return fmt.Errorf("core: gamma must be in [0,1), got %v", c.Gamma)
	}
	if c.ActorLR <= 0 || c.CriticLR <= 0 {
		return fmt.Errorf("core: learning rates must be positive")
	}
	if c.Batch <= 0 || c.UpdateIters <= 0 {
		return fmt.Errorf("core: batch and update iterations must be positive")
	}
	return nil
}

// FairMove is the trained displacement system. It implements
// policy.Policy, so it is evaluated exactly like the baselines.
type FairMove struct {
	cfg Config

	actor        *nn.MLP
	critic       *nn.MLP
	targetCritic *nn.MLP
	actorOpt     *nn.Adam
	criticOpt    *nn.Adam

	src       *rng.Source
	exploring bool

	// demo holds demonstration transitions from Pretrain; Train replays
	// behavior-cloning batches from it between policy-gradient updates to
	// anchor the actor against collapse (in the spirit of DQfD).
	demo []policy.Transition

	// resume cursors: completed pretraining and fine-tuning episodes.
	// Checkpoints are cut at episode boundaries, where every per-episode
	// stream re-derives from (seed, episode), so these counters plus the
	// networks, optimizers, and demo buffer fully determine the rest of a
	// run. fineTuning records that Train already swapped in the gentler
	// actor optimizer, so a resumed run keeps its saved optimizer state.
	demoDone   int
	epDone     int
	fineTuning bool

	// shards is the engine shard count training runs on (0 means 1). Set
	// with SetShards.
	shards int

	// Update-step scratch (DESIGN.md §9): batch matrices and per-row softmax
	// buffers owned by the learner and reused across minibatch updates, so
	// the steady-state critic/actor steps allocate nothing. upX/upXN hold the
	// sampled observations and next-observations, upY the TD targets, upGrad
	// the policy-gradient rows, upMSE the critic loss gradient. Never
	// serialized; checkpoints see only networks and optimizers.
	upX, upXN, upY *nn.Mat
	upGrad, upMSE  *nn.Mat
	upAdvs         []float64
	upProbs        []float64

	// Decision scratch, reused slot to slot by Act and the training
	// rollout: the slot's observations, their feature rows, and the
	// softmax buffer of sample.
	actObs   []sim.Observation
	actRows  [][]float64
	actProbs []float64

	tel coreTel
}

// SetShards sets the engine shard count training runs on (0 means 1). It
// changes wall-clock only: trajectories are byte-identical for any count.
func (f *FairMove) SetShards(k int) { f.shards = k }

// New creates an untrained FairMove system.
func New(cfg Config) (*FairMove, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64, 64}
	}
	src := rng.SplitStable(cfg.Seed, "cma2c-init")
	actorSizes := append([]int{sim.FeatureSize}, cfg.Hidden...)
	actorSizes = append(actorSizes, sim.NumActions)
	criticSizes := append([]int{sim.FeatureSize}, cfg.Hidden...)
	criticSizes = append(criticSizes, 1)
	f := &FairMove{
		cfg:       cfg,
		actor:     nn.NewMLP(src, actorSizes, nn.Tanh, nn.Identity),
		critic:    nn.NewMLP(src, criticSizes, nn.Tanh, nn.Identity),
		actorOpt:  nn.NewAdam(cfg.ActorLR),
		criticOpt: nn.NewAdam(cfg.CriticLR),
		src:       src,
	}
	f.targetCritic = f.critic.Clone()
	return f, nil
}

// Name implements policy.Policy.
func (f *FairMove) Name() string { return "FairMove" }

// Config returns the hyperparameters.
func (f *FairMove) Config() Config { return f.cfg }

// BeginEpisode implements policy.Policy.
func (f *FairMove) BeginEpisode(seed int64) { f.src = rng.SplitStable(seed, "cma2c") }

// probs evaluates the masked policy distribution for one observation.
func (f *FairMove) probs(obs sim.Observation) []float64 {
	logits := f.actor.Forward1(obs.Features)
	return nn.Softmax(logits, obs.Mask[:])
}

// slotLogits evaluates the shared actor on every observation of a slot in
// one batched pass sharded across workers (inference only reads the
// weights). The rows alias the actor's inference arena and stay valid until
// its next inference call.
func (f *FairMove) slotLogits(obs []sim.Observation) [][]float32 {
	rows := f.actRows[:0]
	for i := range obs {
		rows = append(rows, obs[i].Features)
	}
	f.actRows = rows
	return f.actor.ForwardRows(rows, f.cfg.Workers)
}

// sample draws an action from the masked softmax of one row of actor
// logits. Execution stays stochastic at evaluation time too: agents in the
// same region share an observation, so a deterministic argmax would send
// them all to the same station or neighbor (herding), while sampling from π
// disperses them — the intended behavior of executing a learned stochastic
// policy.
func (f *FairMove) sample(logits []float32, mask *[sim.NumActions]bool) int {
	if f.actProbs == nil {
		f.actProbs = make([]float64, sim.NumActions)
	}
	return f.src.WeightedChoice(nn.SoftmaxInto(logits, mask[:], f.actProbs))
}

// Act implements policy.Policy: centralized training, decentralized
// execution — each agent queries the shared actor on its own observation.
//
// The slot is processed in three phases so the fleet-wide forward pass can
// use every core without giving up determinism: observations are collected
// serially (Observe refreshes per-slot environment caches, so Env stays
// single-writer), the shared actor evaluates all rows in one batched pass,
// and sampling consumes f.src serially in vacant order — the same rng draw
// sequence as a per-taxi loop. Training rollouts run the same two steps
// through RunEpisode's slot hook.
func (f *FairMove) Act(env sim.Environment, vacant []int) map[int]sim.Action {
	actions := make(map[int]sim.Action, len(vacant))
	obs := f.actObs[:0]
	for _, id := range vacant {
		obs = append(obs, env.Observe(id))
	}
	f.actObs = obs
	logits := f.slotLogits(obs)
	for i, id := range vacant {
		actions[id] = sim.ActionFromIndex(f.sample(logits[i], &obs[i].Mask))
	}
	return actions
}

// value evaluates a critic network on one observation.
func value(net *nn.MLP, obs []float64) float64 { return float64(net.Forward1(obs)[0]) }

// TrainStats records per-episode training diagnostics.
type TrainStats struct {
	Episodes    int
	MeanReward  []float64 // per-episode mean decision reward (Table IV's r)
	CriticLoss  []float64 // per-episode mean critic loss
	MeanAdvAbs  []float64 // per-episode mean |advantage|
	Transitions int
	PolicyEnt   float64 // final mean policy entropy over a sample
}

// Train runs Algorithm 1 until `episodes` total fine-tuning episodes are
// complete, each simulating `days` of fleet operation on city. The same seed
// always reproduces the same training trajectory; a system restored from a
// mid-run checkpoint picks up at its next episode and finishes with
// byte-identical weights.
func (f *FairMove) Train(city *synth.City, episodes, days int, seed int64) TrainStats {
	stats, _ := f.TrainCheckpointed(city, episodes, days, seed, checkpoint.TrainOptions{})
	return stats
}

// TrainCheckpointed is Train with a checkpoint cadence: after every
// opts.Every-th completed episode (and at the end of the run) the full
// learner state is written crash-safely into opts.Dir.
func (f *FairMove) TrainCheckpointed(city *synth.City, episodes, days int, seed int64, opts checkpoint.TrainOptions) (TrainStats, error) {
	stats := TrainStats{Episodes: episodes}
	env := sim.New(city, sim.DefaultOptions(days), f.shards, seed)

	// When a warm start is present, fine-tuning polishes rather than
	// re-learns: the actor steps an order of magnitude smaller so the noisy
	// semi-MDP advantages adjust the demonstrated policy instead of
	// overwriting it. The fineTuning flag survives checkpoints, so a resumed
	// run keeps polishing with its saved optimizer state instead of
	// resetting the moments a second time.
	if len(f.demo) > 0 && !f.fineTuning {
		f.actorOpt = nn.NewAdam(f.cfg.ActorLR * 0.1)
	}
	f.fineTuning = true
	f.tel.phase.Set(1)

	for ep := f.epDone; ep < episodes; ep++ {
		epSeed := seed + int64(ep)
		env.Reset(epSeed)
		f.BeginEpisode(epSeed)
		f.exploring = true

		// Lines 3-7 of Algorithm 1: roll out the joint policy, storing the
		// transitions of all active e-taxis.
		var buf []policy.Transition
		var logits [][]float32
		next := 0
		stopEp := f.tel.EpisodeTime.Start()
		mean := policy.RunEpisode(env,
			func(obs []sim.Observation) { logits, next = f.slotLogits(obs), 0 },
			func(_ int, obs sim.Observation) int {
				next++
				return f.sample(logits[next-1], &obs.Mask)
			},
			f.cfg.Alpha, f.cfg.Gamma,
			func(id int, tr policy.Transition) { buf = append(buf, tr.Detach()) },
		)
		stats.MeanReward = append(stats.MeanReward, mean)
		stats.Transitions += len(buf)
		f.tel.Episodes.Inc()
		f.tel.Transitions.Add(int64(len(buf)))
		f.tel.MeanReward.Set(mean)
		if len(buf) == 0 {
			stopEp()
			stats.CriticLoss = append(stats.CriticLoss, 0)
			stats.MeanAdvAbs = append(stats.MeanAdvAbs, 0)
			f.epDone = ep + 1
			if opts.ShouldSave(f.epDone, episodes) {
				if _, err := checkpoint.SaveDir(opts.Dir, f, opts.Keep); err != nil {
					f.exploring = false
					return stats, err
				}
			}
			continue
		}

		// Lines 8-10: M iterations of minibatch updates.
		var lossSum, advSum float64
		var nUpd int
		batch := f.cfg.Batch
		if batch > len(buf) {
			batch = len(buf)
		}
		idxs := make([]int, batch)
		for it := 0; it < f.cfg.UpdateIters; it++ {
			for b := range idxs {
				idxs[b] = f.src.Intn(len(buf))
			}
			lossSum += f.updateCritic(buf, idxs)
			advSum += f.updateActor(buf, idxs)
			nUpd++
			// Demonstration anchor: every few policy-gradient steps, one
			// behavior-cloning step on Pretrain data keeps the actor from
			// drifting into degenerate corners of the action space while
			// the advantage estimates are still noisy.
			if len(f.demo) >= batch && it%2 == 1 {
				for b := range idxs {
					idxs[b] = f.src.Intn(len(f.demo))
				}
				f.cloneActor(f.demo, idxs)
			}
		}
		stats.CriticLoss = append(stats.CriticLoss, lossSum/float64(nUpd))
		stats.MeanAdvAbs = append(stats.MeanAdvAbs, advSum/float64(nUpd))
		f.tel.criticLoss.Set(lossSum / float64(nUpd))
		f.tel.meanAdvAbs.Set(advSum / float64(nUpd))
		stopEp()

		// Target network hard update per episode (Eq. 7's θv').
		f.targetCritic.CopyWeightsFrom(f.critic)

		f.epDone = ep + 1
		if opts.ShouldSave(f.epDone, episodes) {
			if _, err := checkpoint.SaveDir(opts.Dir, f, opts.Keep); err != nil {
				f.exploring = false
				return stats, err
			}
		}
	}
	f.exploring = false
	return stats, nil
}

// Pretrain warm-starts the system from demonstration episodes driven by
// guide (typically ground-truth driver behavior): the critic learns V by
// TD regression on the demonstration transitions, and the actor is
// behavior-cloned toward the demonstrated actions (cross-entropy = policy
// gradient with unit advantage). RL fine-tuning in Train then improves on
// the demonstrated behavior rather than exploring from scratch — without
// it, random multi-agent exploration floods charging stations for many
// episodes before any signal emerges.
//
// Demonstration rollouts are guide-driven — the learner's weights never
// influence the trajectories — so episodes fan out across workers and the
// gradient steps below consume them serially in episode order, which keeps
// the result byte-identical to a serial run.
func (f *FairMove) Pretrain(city *synth.City, guide policy.Policy, episodes, days int, seed int64) {
	_ = f.PretrainCheckpointed(city, guide, episodes, days, seed, checkpoint.TrainOptions{})
}

// PretrainCheckpointed is Pretrain with a checkpoint cadence. A system
// restored from a pretraining checkpoint replays only the demonstration
// episodes it has not consumed yet; the completed warm start is
// byte-identical to an unbroken one.
func (f *FairMove) PretrainCheckpointed(city *synth.City, guide policy.Policy, episodes, days int, seed int64, opts checkpoint.TrainOptions) error {
	f.tel.phase.Set(0)
	from := f.demoDone
	bufs := policy.CollectDemosFrom(f.shards, city, guide, from, episodes, days, seed, f.cfg.Workers, f.cfg.Alpha, f.cfg.Gamma)
	for i, buf := range bufs {
		ep := from + i
		f.tel.demoEpisodes.Inc()
		f.tel.Transitions.Add(int64(len(buf)))
		// BeginEpisode re-derives f.src exactly as the serial loop did
		// before its rollout; the rollout itself never consumed f.src.
		f.BeginEpisode(policy.DemoEpisodeSeed(seed, ep))
		if len(buf) > 0 {
			batch := f.cfg.Batch
			if batch > len(buf) {
				batch = len(buf)
			}
			iters := len(buf) / batch * 2
			idxs := make([]int, batch)
			for it := 0; it < iters; it++ {
				for b := range idxs {
					idxs[b] = f.src.Intn(len(buf))
				}
				f.updateCritic(buf, idxs)
				f.cloneActor(buf, idxs)
			}
			f.targetCritic.CopyWeightsFrom(f.critic)
			f.demo = append(f.demo, buf...)
		}
		f.demoDone = ep + 1
		if opts.ShouldSave(f.demoDone, episodes) {
			if _, err := checkpoint.SaveDir(opts.Dir, f, opts.Keep); err != nil {
				return err
			}
		}
	}
	return nil
}

// cloneActor takes one behavior-cloning step toward the demonstrated
// actions of a minibatch: one batched forward, fused per-row gradients, one
// batched backward.
func (f *FairMove) cloneActor(buf []policy.Transition, idxs []int) {
	n := len(idxs)
	f.actor.ZeroGrad()
	f.upX = nn.EnsureMat(f.upX, n, sim.FeatureSize)
	for b, i := range idxs {
		f.upX.SetRow(b, buf[i].Obs)
	}
	logits := f.actor.Forward(f.upX, true)
	f.upGrad = nn.EnsureMat(f.upGrad, n, sim.NumActions)
	if f.upProbs == nil {
		f.upProbs = make([]float64, sim.NumActions)
	}
	inv := 1 / float64(n)
	for b, i := range idxs {
		tr := &buf[i]
		nn.PolicyGradientRowInto(logits.Row(b), tr.Mask[:], tr.Action, 1.0, 0, inv, f.upProbs, f.upGrad.Row(b))
	}
	f.actor.Backward(f.upGrad)
	_, grads := f.actor.Params()
	f.tel.actorGrad.Observe(nn.ClipGrads(grads, 5))
	f.tel.cloneSteps.Inc()
	f.actorOpt.Step(f.actor)
}

// tdTarget computes r + β^elapsed · V'(s') (Eq. 7/10) for one transition,
// zero bootstrap at the horizon. The update steps use the batched
// tdTargetsInto; this scalar form serves diagnostics and tests.
func (f *FairMove) tdTarget(tr policy.Transition) float64 {
	y := tr.Reward
	if !tr.Terminal {
		y += math.Pow(f.cfg.Gamma, float64(tr.Elapsed)) * value(f.targetCritic, tr.NextObs)
	}
	return y
}

// tdTargetsInto fills y (n×1) with r + β^elapsed · V'(s') for the sampled
// transitions, evaluating the target critic on every next-state in one
// batched pass. Terminal rows bootstrap zero; their input rows are zeroed
// (any value would do — the output is discarded) so the batch shape stays
// fixed.
func (f *FairMove) tdTargetsInto(buf []policy.Transition, idxs []int, y *nn.Mat) {
	n := len(idxs)
	f.upXN = nn.EnsureMat(f.upXN, n, sim.FeatureSize)
	for b, i := range idxs {
		tr := &buf[i]
		if tr.Terminal || tr.NextObs == nil {
			row := f.upXN.Row(b)
			for j := range row {
				row[j] = 0
			}
		} else {
			f.upXN.SetRow(b, tr.NextObs)
		}
	}
	next := f.targetCritic.ForwardBatch(f.upXN, 1)
	for b, i := range idxs {
		tr := &buf[i]
		t := tr.Reward
		if !tr.Terminal {
			t += math.Pow(f.cfg.Gamma, float64(tr.Elapsed)) * next.At(b, 0)
		}
		y.Set(b, 0, t)
	}
}

// updateCritic takes one minibatch step on L(θv) = (V(s) − y)² (Eq. 6) and
// returns the batch loss. The target pass, prediction, and backprop each run
// as one batched GEMM over learner-owned scratch.
func (f *FairMove) updateCritic(buf []policy.Transition, idxs []int) float64 {
	n := len(idxs)
	f.upX = nn.EnsureMat(f.upX, n, sim.FeatureSize)
	for b, i := range idxs {
		f.upX.SetRow(b, buf[i].Obs)
	}
	f.upY = nn.EnsureMat(f.upY, n, 1)
	f.tdTargetsInto(buf, idxs, f.upY)
	f.critic.ZeroGrad()
	pred := f.critic.Forward(f.upX, true)
	loss, grad := nn.MSELossInto(pred, f.upY, f.upMSE)
	f.upMSE = grad
	f.critic.Backward(grad)
	_, grads := f.critic.Params()
	f.tel.criticGrad.Observe(nn.ClipGrads(grads, 5))
	f.tel.criticSteps.Inc()
	f.criticOpt.Step(f.critic)
	return loss
}

// updateActor takes one minibatch policy-gradient step with the TD-error
// advantage (Eq. 8-11) plus an entropy bonus, and returns the mean |A|.
// Advantages are standardized within the batch and clipped — without this,
// the noisy semi-MDP advantages random-walk the logits of rarely compared
// actions (the five station ranks) until the softmax saturates on an
// arbitrary one.
func (f *FairMove) updateActor(buf []policy.Transition, idxs []int) float64 {
	n := len(idxs)
	f.actor.ZeroGrad()
	f.upX = nn.EnsureMat(f.upX, n, sim.FeatureSize)
	for b, i := range idxs {
		f.upX.SetRow(b, buf[i].Obs)
	}
	logits := f.actor.Forward(f.upX, true)

	// Advantage = batched TD target − batched critic value, both one GEMM
	// pass over the same observation batch.
	f.upY = nn.EnsureMat(f.upY, n, 1)
	f.tdTargetsInto(buf, idxs, f.upY)
	vals := f.critic.ForwardBatch(f.upX, 1)
	if cap(f.upAdvs) < n {
		f.upAdvs = make([]float64, n)
	}
	advs := f.upAdvs[:n]
	var mean float64
	for b := range idxs {
		advs[b] = f.upY.At(b, 0) - vals.At(b, 0)
		mean += advs[b]
	}
	mean /= float64(n)
	var variance float64
	for _, a := range advs {
		variance += (a - mean) * (a - mean)
	}
	std := math.Sqrt(variance/float64(n)) + 1e-6
	var advAbs float64
	for b := range advs {
		advAbs += math.Abs(advs[b])
		advs[b] = (advs[b] - mean) / std
		if advs[b] > 3 {
			advs[b] = 3
		}
		if advs[b] < -3 {
			advs[b] = -3
		}
	}

	f.upGrad = nn.EnsureMat(f.upGrad, n, sim.NumActions)
	if f.upProbs == nil {
		f.upProbs = make([]float64, sim.NumActions)
	}
	inv := 1 / float64(n)
	for b, i := range idxs {
		tr := &buf[i]
		nn.PolicyGradientRowInto(logits.Row(b), tr.Mask[:], tr.Action, advs[b], f.cfg.EntropyCoef, inv, f.upProbs, f.upGrad.Row(b))
	}
	f.actor.Backward(f.upGrad)
	_, grads := f.actor.Params()
	f.tel.actorGrad.Observe(nn.ClipGrads(grads, 5))
	f.tel.actorSteps.Inc()
	f.tel.advStd.Set(std)
	f.actorOpt.Step(f.actor)
	return advAbs / float64(n)
}

// Value exposes the critic's state-value estimate (diagnostics, tests).
func (f *FairMove) Value(obs sim.Observation) float64 { return value(f.critic, obs.Features) }

// Probs exposes the policy distribution (diagnostics, tests).
func (f *FairMove) Probs(obs sim.Observation) []float64 { return f.probs(obs) }
