// Package policy defines the displacement-policy interface and implements
// the paper's five baselines: ground-truth driver behavior (GT),
// shortest-distance displacement (SD2), tabular Q-learning (TQL), Deep
// Q-Networks (DQN), and the REINFORCE-based trip bandit (TBA). The paper's
// contribution, CMA2C, lives in internal/core and shares the episode
// harness and reward definition declared here.
package policy

import (
	"repro/internal/sim"
)

// Policy decides one displacement action per vacant taxi each time slot.
type Policy interface {
	// Name identifies the strategy in reports (e.g. "SD2").
	Name() string
	// Act returns actions for the given vacant taxis. Missing entries
	// default to Stay. Implementations must respect the environment's
	// action mask; violations are coerced and counted.
	Act(env sim.Environment, vacant []int) map[int]sim.Action
	// BeginEpisode resets any per-episode state (e.g. exploration).
	BeginEpisode(seed int64)
}

// RewardScale normalizes Eq. 5 rewards before they reach value networks;
// fares are tens of CNY so raw slot-PE values are O(100).
const RewardScale = 0.01

// SlotReward computes the paper's blended reward r(k,t) (Eq. 4-5) for taxi
// id over the slot just simulated: α times the taxi's slot profit
// efficiency minus (1-α) times the fairness penalty. The penalty is the
// per-slot *change* of the fleet PE variance ΔPF(t) rather than its level:
// the sum of deltas telescopes to the same episode objective, but the level
// is a shared constant no single action controls, and feeding it raw drowns
// the per-agent credit signal (it grows to hundreds while a slot's profit
// term is O(10)). pfDelta is passed in so callers evaluate it once per slot.
func SlotReward(env sim.Environment, id int, alpha, pfDelta float64) float64 {
	slotHours := float64(env.SlotLen()) / 60
	pe := env.SlotProfit(id) / slotHours
	return (alpha*pe - (1-alpha)*pfDelta) * RewardScale
}

// Transition is one semi-MDP learning sample: the observation and action at
// a decision slot, the discounted reward accumulated until the taxi's next
// decision, and the observation there. Elapsed counts slots between the two
// decisions (≥1), used to discount the bootstrap term by gamma^Elapsed.
//
// Inside RunEpisode's onTransition callback, Obs and NextObs borrow reused
// buffers that the same taxi's next decision overwrites: a callback that
// stores the transition beyond its own return must Detach it (or copy the
// slices into storage it owns, as the DQN replay ring does).
type Transition struct {
	Obs      []float64
	Mask     [sim.NumActions]bool
	Action   int // flattened action index
	Reward   float64
	NextObs  []float64
	NextMask [sim.NumActions]bool
	Elapsed  int
	Terminal bool
}

// Detach returns the transition with Obs and NextObs copied into fresh
// storage, safe to keep after the onTransition callback returns. A nil
// NextObs (terminal transitions) stays nil.
func (tr Transition) Detach() Transition {
	tr.Obs = append([]float64(nil), tr.Obs...)
	if tr.NextObs != nil {
		tr.NextObs = append([]float64(nil), tr.NextObs...)
	}
	return tr
}

// Chooser selects a flattened action index given a taxi's observation.
type Chooser func(id int, obs sim.Observation) int

// SlotHook is RunEpisode's per-slot hook: it receives the observations of
// the slot's vacant taxis, in vacant order and valid until the next slot,
// before any of them is chosen for. A learner uses it to evaluate its
// shared network on the whole slot in one batched pass; its Chooser is then
// called once per vacant taxi, in the same order, so it can consume the
// batch row by row.
type SlotHook func(obs []sim.Observation)

// RunEpisode drives env to completion, choosing actions with choose,
// accumulating Eq. 5 rewards with the given alpha and gamma, and invoking
// onTransition for every closed semi-MDP transition. It returns the mean
// per-decision reward (the "average reward r" of Table IV).
//
// Each slot observes every vacant taxi first, calls prepare (nil skips it)
// with the observations, then visits the taxis in vacant order: close the
// taxi's previous transition, then choose its action. Observing is
// read-only with respect to decisions — a taxi's observation does not
// depend on what another taxi chose in the same slot — so observing up
// front changes no trajectory.
//
// A transition opens when a vacant taxi acts and closes at that taxi's next
// decision (or at the horizon, marked Terminal). Rewards earned in the
// intervening slots — fares collected, charging costs paid, and the fleet
// fairness term — are discounted by gamma per slot.
func RunEpisode(env sim.Environment, prepare SlotHook, choose Chooser, alpha, gamma float64, onTransition func(id int, tr Transition)) (meanReward float64) {
	type pending struct {
		// feats is a pend-owned copy of the opening observation's features:
		// Observation.Features borrows an env buffer the same taxi's next
		// Observe rewrites, and a transition stays open across many slots.
		feats   []float64
		mask    [sim.NumActions]bool
		action  int
		reward  float64
		gammaPw float64
		elapsed int
		open    bool
	}
	pend := make([]pending, len(env.City().Fleet))

	var rewardSum float64
	var rewardN int
	_, pfPrev := env.FleetPEStats()

	actions := make(map[int]sim.Action)
	var slotObs []sim.Observation
	for !env.Done() {
		vacant := env.VacantTaxis()
		clear(actions)
		slotObs = slotObs[:0]
		for _, id := range vacant {
			slotObs = append(slotObs, env.Observe(id))
		}
		if prepare != nil {
			prepare(slotObs)
		}
		for i, id := range vacant {
			obs := slotObs[i]
			// Close the previous transition at this new decision point.
			if pend[id].open && onTransition != nil {
				onTransition(id, Transition{
					Obs:      pend[id].feats,
					Mask:     pend[id].mask,
					Action:   pend[id].action,
					Reward:   pend[id].reward,
					NextObs:  obs.Features,
					NextMask: obs.Mask,
					Elapsed:  pend[id].elapsed,
				})
			}
			idx := choose(id, obs)
			actions[id] = sim.ActionFromIndex(idx)
			p := &pend[id]
			p.feats = append(p.feats[:0], obs.Features...)
			p.mask = obs.Mask
			p.action = idx
			p.reward = 0
			p.gammaPw = 1
			p.elapsed = 0
			p.open = true
		}

		env.Step(actions)

		// Accrue this slot's reward into every open transition.
		_, pfNow := env.FleetPEStats()
		pfDelta := pfNow - pfPrev
		pfPrev = pfNow
		for id := range pend {
			if !pend[id].open {
				continue
			}
			r := SlotReward(env, id, alpha, pfDelta)
			pend[id].reward += pend[id].gammaPw * r
			pend[id].gammaPw *= gamma
			pend[id].elapsed++
			if _, acted := actions[id]; acted {
				rewardSum += r
				rewardN++
			}
		}
	}

	// Close transitions still open at the horizon.
	if onTransition != nil {
		for id := range pend {
			if !pend[id].open {
				continue
			}
			onTransition(id, Transition{
				Obs:      pend[id].feats,
				Mask:     pend[id].mask,
				Action:   pend[id].action,
				Reward:   pend[id].reward,
				Elapsed:  pend[id].elapsed,
				Terminal: true,
			})
		}
	}

	if rewardN == 0 {
		return 0
	}
	return rewardSum / float64(rewardN)
}

// PolicyChooser adapts a joint Policy to RunEpisode's per-taxi Chooser. The
// policy's Act is invoked once per slot; mask-invalid or missing actions
// fall back to the first valid index. It is how demonstration episodes
// (e.g. ground-truth driver behavior) are fed to off-policy learners as a
// warm start before on-policy fine-tuning.
func PolicyChooser(env sim.Environment, pol Policy) Chooser {
	slot := -1
	var acts map[int]sim.Action
	return func(id int, obs sim.Observation) int {
		if env.Slot() != slot {
			slot = env.Slot()
			acts = pol.Act(env, env.VacantTaxis())
		}
		a, ok := acts[id]
		if !ok {
			a = sim.Action{Kind: sim.Stay}
		}
		idx := sim.ActionIndex(a)
		if !obs.Mask[idx] {
			for i, valid := range obs.Mask {
				if valid {
					return i
				}
			}
		}
		return idx
	}
}

// Evaluate runs policy p over a fresh environment seeded with seed and
// returns the accounting. All strategies in the evaluation are compared on
// the same (city, seed) pair, hence on an identical demand realization.
//
// It is a thin loop over Runner — the same slot driver the online dispatch
// service steps from its event feed — so batch and served trajectories are
// byte-identical by construction.
func Evaluate(p Policy, env sim.Environment, seed int64) *sim.Results {
	r := NewRunner(p, env, seed)
	for !r.Done() {
		r.StepSlot()
	}
	return r.Results()
}
