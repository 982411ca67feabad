package core

import (
	"math"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Property (DESIGN.md §6): with γ = 1 the per-slot ΔPF penalties telescope,
// so each taxi's total reward over an episode equals the episode objective —
// α times its summed slot profit efficiency minus (1−α) times the net PF
// change since its first decision — with no dependence on how the episode
// was sliced into transitions. The test replays the identical trajectory
// manually (the chooser is deterministic, so both passes see the same
// demand realization and actions) and reconciles RunEpisode's accumulated
// transition rewards against the objective computed from raw env state.
func TestRewardTelescopesToEpisodeObjective(t *testing.T) {
	city, err := synth.Build(synth.TestConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, 0.4, 1} {
		const seed = 31
		opts := sim.DefaultOptions(1)

		// firstValid is deterministic and rng-free, so the two passes below
		// drive byte-identical trajectories from the same seed.
		firstValid := func(mask [sim.NumActions]bool) int {
			for i, ok := range mask {
				if ok {
					return i
				}
			}
			return 0
		}

		// Pass 1: RunEpisode accumulates each taxi's transition rewards.
		env := sim.New(city, opts, 1, seed)
		got := make(map[int]float64)
		policy.RunEpisode(env, nil,
			func(id int, obs sim.Observation) int { return firstValid(obs.Mask) },
			alpha, 1.0,
			func(id int, tr policy.Transition) { got[id] += tr.Reward },
		)

		// Pass 2: manual replay, tracking PF before each taxi's first
		// decision and summing slot PE from then on.
		env2 := sim.New(city, opts, 1, seed)
		slotHours := float64(env2.SlotLen()) / 60
		peSum := make(map[int]float64)
		pfAtOpen := make(map[int]float64)
		_, pfPrev := env2.FleetPEStats()
		for !env2.Done() {
			actions := make(map[int]sim.Action)
			for _, id := range env2.VacantTaxis() {
				if _, seen := pfAtOpen[id]; !seen {
					pfAtOpen[id] = pfPrev
				}
				actions[id] = sim.ActionFromIndex(firstValid(env2.ValidMask(id)))
			}
			env2.Step(actions)
			_, pfPrev = env2.FleetPEStats()
			for id := range pfAtOpen {
				peSum[id] += env2.SlotProfit(id) / slotHours
			}
		}
		_, pfEnd := env2.FleetPEStats()

		if len(got) == 0 {
			t.Fatalf("alpha=%v: episode produced no transitions", alpha)
		}
		for id, reward := range got {
			want := (alpha*peSum[id] - (1-alpha)*(pfEnd-pfAtOpen[id])) * policy.RewardScale
			if math.Abs(reward-want) > 1e-9 {
				t.Fatalf("alpha=%v taxi %d: transition rewards sum to %.12f, episode objective is %.12f",
					alpha, id, reward, want)
			}
		}
	}
}
