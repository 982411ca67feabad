package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	fairmove "repro"
	"repro/internal/policy"
)

// trainConfig is the train-cma2c workload: CMA2C at repro scale (300 taxis,
// 4 demonstration + 6 fine-tuning episodes of one day), the size at which
// the NN training work (backward passes, Adam, small GEMMs) dominates.
// Shards and Workers are pinned so a change of engine defaults does not
// move the numbers.
func trainConfig(seed int64) fairmove.Config {
	cfg := fairmove.DefaultConfig(seed)
	cfg.Shards = 1
	cfg.Workers = 2
	return cfg
}

// trainSlots is how many slots one training simulates.
func trainSlots(cfg fairmove.Config) int {
	return (cfg.PretrainEpisodes + cfg.TrainEpisodes) * cfg.TrainDays * 24 * 60 / cfg.SlotMinutes
}

type trainBench struct {
	seed int64
	sys  *fairmove.System // built by set-up; the first training uses it

	// One entry per training of every pass, for the determinism oracle.
	policyHashes []string
	transitions  []int
	lastPolicy   string
}

func setupTrain(seed int64, _ int) (bench, error) {
	sys, err := fairmove.NewSystem(trainConfig(seed))
	if err != nil {
		return nil, err
	}
	return &trainBench{seed: seed, sys: sys}, nil
}

// trainSeconds is roughly one training on the reference host; it turns
// --seconds into a fixed training count, so every run does the same work
// whatever the host's speed at the moment.
const trainSeconds = 6.5

// trainValidations is how many times each trained policy is validated. A
// validation is short (about 0.3 s), so one would sample the host at a
// single moment; repeats spread the samples over more of the run and give
// every slot several measurements.
const trainValidations = 3

// measure trains a fixed number of times. The throughput is the median of
// the trainings' simulated-slot rates. After each training the trained
// policy is validated trainValidations times through policy.Runner on the
// evaluation horizon, starting from a collected heap so the training's
// garbage does not land in the validation's latencies; the validations
// give the decision-latency samples. Each training's policy is saved
// (untimed) for the oracles.
func (b *trainBench) measure(seconds int, ins *instruments) (*measurement, error) {
	cfg := trainConfig(b.seed)
	m := &measurement{coverage: -1, layers: map[string]float64{}}
	var tr *tracer
	root := -1
	if ins != nil {
		tr, root = ins.tr, ins.root
	}
	p := newProbe(tr, root)
	m.probe = p
	var trainS float64
	var rates []float64
	var validations [][]float64 // per-slot latencies of each validation
	for n := max(2, int(float64(seconds)/trainSeconds+0.5)); len(rates) < n; {
		sys := b.sys
		b.sys = nil
		if sys == nil {
			span := tr.begin("setup", root, -1)
			var err error
			sys, err = fairmove.NewSystem(cfg)
			tr.end(span)
			if err != nil {
				return nil, err
			}
		}
		if ins != nil {
			sys.SetTelemetry(ins.reg)
		}
		span := tr.begin("train", root, -1)
		t := time.Now()
		rep, err := sys.TrainWithOptions(fairmove.TrainOptions{})
		d := time.Since(t).Seconds()
		tr.end(span)
		if err != nil {
			return nil, err
		}
		trainS += d
		rates = append(rates, float64(trainSlots(cfg))/d)

		pol, err := sys.PolicyFor(fairmove.FairMove)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		span = tr.begin("validate", root, -1)
		p.root = span
		env := probeEnv{sys.EvalEnv(), p}
		for v := 0; v < trainValidations; v++ {
			var lat []float64
			r := policy.NewRunner(probePolicy{pol, p}, env, sys.EvalSeed())
			for !r.Done() {
				t := time.Now()
				r.StepSlot()
				lat = append(lat, ms(time.Since(t)))
			}
			validations = append(validations, lat)
		}
		tr.end(span)

		// Untimed: keep the trained policy for the oracles.
		span = tr.begin("oracle.save", root, -1)
		hash, path, err := savePolicy(sys, fmt.Sprintf("train-seed%d", b.seed))
		tr.end(span)
		if err != nil {
			return nil, err
		}
		b.policyHashes = append(b.policyHashes, hash)
		b.transitions = append(b.transitions, rep.Transitions)
		b.lastPolicy = path
	}
	// Every validation replays the same deterministic episode with the same
	// policy (the oracle checks the trainings agree), so a slot's latency is
	// its median over the validations.
	m.decisionsMs = slotMedians(validations)
	m.slotsPerSec = median(rates)
	m.attempted = len(rates)
	if ins != nil {
		snap := ins.reg.Snapshot()
		n := float64(len(rates))
		ep := snap.Timers["core.episode"]
		m.layers["core.train_s"] = trainS / n
		m.layers["core.episode_ms"] = float64(ep.TotalNs) / 1e6 / float64(max(ep.Count, 1))
		m.layers["core.pretrain_s"] = (trainS - float64(ep.TotalNs)/1e9) / n
		for _, c := range []string{"actor_steps", "critic_steps", "clone_steps", "transitions"} {
			m.layers["core."+c] = float64(snap.Counters["core."+c]) / n
		}
		m.layers["core.transitions_per_s"] = float64(snap.Counters["core.transitions"]) / trainS
		m.allocOps = float64(snap.Counters["core.transitions"])
	}
	return m, nil
}

// savePolicy writes the system's FairMove policy under outDir and returns
// the file's SHA-256 and path.
func savePolicy(sys *fairmove.System, name string) (string, string, error) {
	path := filepath.Join(outDir, "policies", name+".fmck")
	if err := sys.SavePolicy(path); err != nil {
		return "", "", err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), path, nil
}

// verify checks that every training of the run produced the same policy
// file and transition count (training is deterministic in its seed), that
// the saved policy reloads and re-saves byte-identically, and that training
// at the pinned reference seed reproduces the pinned policy digest and
// transition count.
func (b *trainBench) verify() error {
	for i := range b.policyHashes {
		if b.policyHashes[i] != b.policyHashes[0] || b.transitions[i] != b.transitions[0] {
			return fmt.Errorf("train: training %d gave policy %s with %d transitions, training 0 gave %s with %d",
				i, b.policyHashes[i][:12], b.transitions[i], b.policyHashes[0][:12], b.transitions[0])
		}
	}
	sys, err := fairmove.NewSystem(trainConfig(b.seed))
	if err != nil {
		return err
	}
	if err := sys.LoadPolicy(b.lastPolicy); err != nil {
		return fmt.Errorf("train: saved policy does not reload: %w", err)
	}
	again, _, err := savePolicy(sys, fmt.Sprintf("train-seed%d-reloaded", b.seed))
	if err != nil {
		return err
	}
	if again != b.policyHashes[0] {
		return fmt.Errorf("train: reloaded policy re-saves as %s, not %s", again[:12], b.policyHashes[0][:12])
	}

	pin, err := loadPins()
	if err != nil {
		return err
	}
	hash, transitions := b.policyHashes[0], b.transitions[0]
	if b.seed != pin.Seed {
		ref, err := fairmove.NewSystem(trainConfig(pin.Seed))
		if err != nil {
			return err
		}
		rep, err := ref.TrainWithOptions(fairmove.TrainOptions{})
		if err != nil {
			return err
		}
		if hash, _, err = savePolicy(ref, fmt.Sprintf("train-seed%d", pin.Seed)); err != nil {
			return err
		}
		transitions = rep.Transitions
	}
	if hash != pin.Train.PolicySHA256 || transitions != pin.Train.Transitions {
		return fmt.Errorf("train: reference seed %d gave policy %s with %d transitions; pinned %s with %d",
			pin.Seed, hash, transitions, pin.Train.PolicySHA256, pin.Train.Transitions)
	}
	return nil
}
