package policy

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/sim"
)

func TestPolicyChooserFollowsGuide(t *testing.T) {
	city := testCity(t, 40)
	env := sim.New(city, sim.DefaultOptions(1), 1, 40)
	env.Reset(40)
	guide := NewCoordinator()
	guide.BeginEpisode(40)
	chooser := PolicyChooser(env, guide)
	vacant := env.VacantTaxis()
	if len(vacant) == 0 {
		t.Fatal("no vacant taxis")
	}
	for _, id := range vacant[:minInt(10, len(vacant))] {
		obs := env.Observe(id)
		idx := chooser(id, obs)
		if idx < 0 || idx >= sim.NumActions {
			t.Fatalf("chooser returned invalid index %d", idx)
		}
		if !obs.Mask[idx] {
			t.Fatalf("chooser returned masked action %d", idx)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTQLPretrainSeedsTable(t *testing.T) {
	city := testCity(t, 41)
	tql := NewTQL(0.6)
	tql.Pretrain(city, NewGroundTruth(), 1, 1, 41)
	if len(tql.q) == 0 {
		t.Fatal("pretrain left the Q-table empty")
	}
	// Pessimistic init: entries must exist with values pulled up from -1.
	anyAbove := false
	for _, qs := range tql.q {
		for _, v := range qs {
			if v > tqlInitQ {
				anyAbove = true
			}
		}
	}
	if !anyAbove {
		t.Fatal("no Q-value was ever updated above the pessimistic floor")
	}
}

func TestDQNPretrainFillsReplay(t *testing.T) {
	city := testCity(t, 42)
	dqn := NewDQN(0.6, 42)
	dqn.Pretrain(city, NewGroundTruth(), 1, 1, 42)
	if len(dqn.replay) == 0 {
		t.Fatal("pretrain left the replay buffer empty")
	}
	// Offline learning must have moved the network.
	fresh := NewDQN(0.6, 42)
	x := make([]float64, sim.FeatureSize)
	for i := range x {
		x[i] = 0.2
	}
	a := fresh.Net().Forward1(x)
	b := dqn.Net().Forward1(x)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pretrain did not change the Q-network")
	}
}

func TestTBAPretrainClonesTeacher(t *testing.T) {
	city := testCity(t, 43)
	tba := NewTBA(43)
	tba.Pretrain(city, NewCoordinator(), 1, 1, 43)
	if len(tba.demo) == 0 {
		t.Fatal("pretrain kept no demonstration transitions")
	}
	// After cloning a mostly-staying teacher, "stay" should carry large
	// probability mass on a typical healthy-taxi observation.
	env := sim.New(city, sim.DefaultOptions(1), 1, 43)
	env.Reset(43)
	var sum float64
	var n int
	for _, id := range env.VacantTaxis() {
		obs := env.Observe(id)
		if !obs.Mask[0] {
			continue
		}
		logits := tba.net.Forward1(obs.Features)
		p := softmaxAt(logits, obs.Mask[:], 0)
		sum += p
		n++
	}
	if n == 0 {
		t.Skip("no stay-valid observations")
	}
	if mean := sum / float64(n); mean < 0.2 {
		t.Errorf("mean stay probability %.3f after cloning a stay-heavy teacher", mean)
	}
}

func softmaxAt(logits []float32, mask []bool, idx int) float64 {
	p := nn.Softmax(logits, mask)
	if idx < 0 || idx >= len(p) {
		return 0
	}
	return p[idx]
}
