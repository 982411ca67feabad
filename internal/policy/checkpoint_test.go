package policy

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

func marshalOrDie(t *testing.T, c checkpoint.Checkpointer) []byte {
	t.Helper()
	data, err := checkpoint.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// roundTrip proves the two checkpoint properties for one learner: a trained
// state survives Marshal → Unmarshal into a differently initialized twin, and
// re-marshaling the twin reproduces the original bytes exactly.
func roundTrip(t *testing.T, trained, fresh checkpoint.Checkpointer) {
	t.Helper()
	data := marshalOrDie(t, trained)
	if _, err := checkpoint.Unmarshal(data, fresh); err != nil {
		t.Fatal(err)
	}
	if again := marshalOrDie(t, fresh); !bytes.Equal(again, data) {
		t.Fatal("restored learner does not re-serialize byte-identically")
	}
}

// failClosed proves a digest-valid container with a malformed payload is
// rejected with ErrPayload and leaves the learner bit-for-bit unchanged.
func failClosed(t *testing.T, learner checkpoint.Checkpointer) {
	t.Helper()
	before := marshalOrDie(t, learner)
	meta := checkpoint.Meta{
		Version:     checkpoint.Version,
		Kind:        learner.CheckpointKind(),
		Fingerprint: learner.CheckpointFingerprint(),
	}
	forged := checkpoint.Seal(meta, []byte{0xff, 0xee, 0xdd})
	if _, err := checkpoint.Unmarshal(forged, learner); !errors.Is(err, checkpoint.ErrPayload) {
		t.Fatalf("forged payload: %v, want ErrPayload", err)
	}
	if after := marshalOrDie(t, learner); !bytes.Equal(after, before) {
		t.Fatal("rejected payload mutated the learner")
	}
}

func TestDQNCheckpointRoundTrip(t *testing.T) {
	city := testCity(t, 5)
	d := NewDQN(0.6, 5)
	d.Pretrain(city, NewGroundTruth(), 1, 1, 5)
	d.Train(city, 1, 1, 5)
	// The twin differs only in weight initialization; hyperparameters (and
	// hence the fingerprint) match.
	roundTrip(t, d, NewDQN(0.6, 999))
	failClosed(t, d)
}

func TestTQLCheckpointRoundTrip(t *testing.T) {
	city := testCity(t, 6)
	q := NewTQL(0.6)
	q.Pretrain(city, NewGroundTruth(), 1, 1, 6)
	q.Train(city, 1, 1, 6)
	if len(q.q) == 0 {
		t.Fatal("training left the Q-table empty; round trip would be vacuous")
	}
	roundTrip(t, q, NewTQL(0.6))
	failClosed(t, q)
}

// TestTQLEncodeDeterministic pins the sorted-key emission: the Q-table is a
// map, and map iteration order must never leak into checkpoint bytes.
func TestTQLEncodeDeterministic(t *testing.T) {
	city := testCity(t, 8)
	q := NewTQL(0.6)
	q.Pretrain(city, NewGroundTruth(), 1, 1, 8)
	first := marshalOrDie(t, q)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(marshalOrDie(t, q), first) {
			t.Fatal("same Q-table serialized to different bytes")
		}
	}
}

func TestTBACheckpointRoundTrip(t *testing.T) {
	city := testCity(t, 9)
	b := NewTBA(9)
	b.Pretrain(city, NewGroundTruth(), 1, 1, 9)
	b.Train(city, 1, 1, 9)
	roundTrip(t, b, NewTBA(321))
	failClosed(t, b)
}

// TestCrossLearnerLoadRejected: a DQN checkpoint must never load into a TBA,
// even though both serialize an MLP + Adam + transitions.
func TestCrossLearnerLoadRejected(t *testing.T) {
	d := NewDQN(0.6, 11)
	data := marshalOrDie(t, d)
	b := NewTBA(11)
	before := marshalOrDie(t, b)
	if _, err := checkpoint.Unmarshal(data, b); !errors.Is(err, checkpoint.ErrKind) {
		t.Fatalf("cross-learner load: %v, want ErrKind", err)
	}
	if !bytes.Equal(marshalOrDie(t, b), before) {
		t.Fatal("rejected cross-learner load mutated the learner")
	}
}

// TestHyperparameterMismatchRejected: the same learner kind with a different
// config must fail the fingerprint check, not silently continue divergently.
func TestHyperparameterMismatchRejected(t *testing.T) {
	data := marshalOrDie(t, NewDQN(0.6, 12))
	other := NewDQN(0.8, 12) // different α
	if _, err := checkpoint.Unmarshal(data, other); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Fatalf("α mismatch: %v, want ErrFingerprint", err)
	}
}

// TestDQNResumeDeterminism is the learner-level crash/resume proof: a run
// interrupted after fine-tune episode 1 and resumed from its checkpoint in a
// brand-new process (modeled by a fresh learner instance) finishes with
// byte-identical state to the unbroken run.
func TestDQNResumeDeterminism(t *testing.T) {
	city := testCity(t, 7)
	const total = 2
	dir := t.TempDir()

	// Unbroken run, cadence on: also proves checkpoint writes never perturb
	// training.
	a := NewDQN(0.6, 7)
	a.Pretrain(city, NewGroundTruth(), 1, 1, 7)
	if _, err := a.TrainCheckpointed(city, total, 1, 7, checkpoint.TrainOptions{Dir: dir, Every: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	want := marshalOrDie(t, a)

	// Plain run with checkpointing off must match too.
	plain := NewDQN(0.6, 7)
	plain.Pretrain(city, NewGroundTruth(), 1, 1, 7)
	plain.Train(city, total, 1, 7)
	if !bytes.Equal(marshalOrDie(t, plain), want) {
		t.Fatal("enabling checkpoints changed the training trajectory")
	}

	// "Crash" after episode 1: restore its checkpoint into a fresh learner
	// and re-run the identical command.
	mid := filepath.Join(dir, checkpoint.FileName(checkpoint.PhaseTrain, 1))
	resumed := NewDQN(0.6, 404)
	if _, err := checkpoint.ReadFile(mid, resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.epDone != 1 {
		t.Fatalf("restored epDone = %d, want 1", resumed.epDone)
	}
	if _, err := resumed.TrainCheckpointed(city, total, 1, 7, checkpoint.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOrDie(t, resumed), want) {
		t.Fatal("resumed run is not byte-identical to the unbroken run")
	}
}

// TestTQLPretrainResumeDeterminism covers the pretrain phase: a warm-start
// interrupted between demonstration episodes resumes byte-identically.
func TestTQLPretrainResumeDeterminism(t *testing.T) {
	city := testCity(t, 13)
	dir := t.TempDir()

	a := NewTQL(0.6)
	if err := a.PretrainCheckpointed(city, NewGroundTruth(), 2, 1, 13, checkpoint.TrainOptions{Dir: dir, Every: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	want := marshalOrDie(t, a)

	mid := filepath.Join(dir, checkpoint.FileName(checkpoint.PhasePretrain, 1))
	resumed := NewTQL(0.6)
	if _, err := checkpoint.ReadFile(mid, resumed); err != nil {
		t.Fatal(err)
	}
	if err := resumed.PretrainCheckpointed(city, NewGroundTruth(), 2, 1, 13, checkpoint.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOrDie(t, resumed), want) {
		t.Fatal("resumed pretrain is not byte-identical to the unbroken run")
	}
}

// TestCheckpointRejectsPreEngineTagFingerprint forges, for every baseline
// learner, a digest-valid checkpoint carrying the fingerprint its kind had
// before sim.EngineTag joined it — what a training run on the retired
// sequential engine wrote — around the learner's own valid payload. Loading
// must fail closed with ErrFingerprint and leave the learner untouched:
// resuming such a checkpoint would continue a different trajectory.
func TestCheckpointRejectsPreEngineTagFingerprint(t *testing.T) {
	d := NewDQN(0.6, 5)
	q := NewTQL(0.6)
	b := NewTBA(5)
	cases := []struct {
		learner checkpoint.Checkpointer
		legacy  string
	}{
		{d, fmt.Sprintf("dqn|alpha=%g|gamma=%g|eps=%g|mineps=%g|hidden=%v|lr=%g|batch=%d|buffer=%d|target=%d|cql=%g|feat=%d|actions=%d",
			d.Alpha, d.Gamma, d.Epsilon, d.MinEps, d.Hidden, d.LR, d.Batch, d.Buffer, d.TargetEvery, d.CQLAlpha,
			sim.FeatureSize, sim.NumActions)},
		{q, fmt.Sprintf("tql|alpha=%g|gamma=%g|lr=%g|eps=%g|bins=%d|actions=%d",
			q.Alpha, q.Gamma, q.LR, q.Epsilon, q.TimeBins, sim.NumActions)},
		{b, fmt.Sprintf("tba|gamma=%g|lr=%g|hidden=%v|feat=%d|actions=%d",
			b.Gamma, b.LR, b.Hidden, sim.FeatureSize, sim.NumActions)},
	}
	for _, tc := range cases {
		kind := tc.learner.CheckpointKind()
		before := marshalOrDie(t, tc.learner)
		enc := checkpoint.NewEncoder()
		tc.learner.EncodeCheckpoint(enc)
		meta := checkpoint.Meta{Version: checkpoint.Version, Kind: kind, Fingerprint: checkpoint.Fingerprint(tc.legacy)}
		if meta.Fingerprint == tc.learner.CheckpointFingerprint() {
			t.Fatalf("%s: fingerprint does not carry the engine tag", kind)
		}
		forged := checkpoint.Seal(meta, enc.Bytes())
		if _, err := checkpoint.Unmarshal(forged, tc.learner); !errors.Is(err, checkpoint.ErrFingerprint) {
			t.Fatalf("%s: pre-engine-tag checkpoint: %v, want ErrFingerprint", kind, err)
		}
		if after := marshalOrDie(t, tc.learner); !bytes.Equal(after, before) {
			t.Fatalf("%s: rejected checkpoint mutated the learner", kind)
		}
	}
}
