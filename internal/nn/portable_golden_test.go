package nn_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/synth"
)

// TestGoldenRetrainWithoutAVX2 retrains the golden CMA2C and TBA
// checkpoints (the micro curriculum of internal/checkpoint's golden test:
// seed 42, one demonstration and one fine-tuning episode) with the AVX2
// kernels switched off, and requires the committed digests. The committed
// fixtures are reproduced on the AVX2 path by TestGoldenRetrainReproduces,
// so together the two pin that the dispatch choice never moves a bit of a
// trained network.
func TestGoldenRetrainWithoutAVX2(t *testing.T) {
	nn.DisableAVX2(t)
	const seed = 42
	city, err := synth.Build(synth.MicroConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	guide := policy.NewGroundTruth()
	learners := map[string]func() checkpoint.Checkpointer{
		"cma2c": func() checkpoint.Checkpointer {
			f, err := core.New(core.DefaultConfig(0.6, seed))
			if err != nil {
				t.Fatal(err)
			}
			f.Pretrain(city, guide, 1, 1, seed)
			f.Train(city, 1, 1, seed)
			return f
		},
		"tba": func() checkpoint.Checkpointer {
			b := policy.NewTBA(seed)
			b.Pretrain(city, guide, 1, 1, seed)
			b.Train(city, 1, 1, seed)
			return b
		},
	}
	for _, kind := range []string{"cma2c", "tba"} {
		t.Run(kind, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "checkpoints", kind+".digest"))
			if err != nil {
				t.Fatal(err)
			}
			data, err := checkpoint.Marshal(learners[kind]())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
				t.Fatalf("retraining %s without AVX2 gives digest %s, golden is %s", kind, got, strings.TrimSpace(string(want)))
			}
		})
	}
}
