package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// The fast samplers (prefix-sum binary search, Walker alias table) exist for
// the engine's hot path. Their contract: same marginal distribution
// as WeightedChoice over the same weights, exactly one uniform consumed per
// draw, zero-weight entries never drawn.

func TestCumWeightsPrefixSums(t *testing.T) {
	cum, total := CumWeights([]float64{1, 0, 2, -3, 4})
	if total != 7 {
		t.Fatalf("total = %v, want 7 (negatives ignored)", total)
	}
	want := []float64{1, 1, 3, 3, 7}
	for i, c := range cum {
		if c != want[i] {
			t.Fatalf("cum[%d] = %v, want %v", i, c, want[i])
		}
	}
}

func TestWeightedChoiceCumMatchesLinearAlmostAlways(t *testing.T) {
	// The binary search rounds by prefix addition, the linear scan by
	// repeated subtraction; they may disagree only on rare boundary draws.
	weights := []float64{0.3, 0, 2.5, 1.1, 0, 0.7, 3.2}
	cum, total := CumWeights(weights)
	a, b := New(99), New(99)
	diverged := 0
	for i := 0; i < 20000; i++ {
		if a.WeightedChoice(weights) != b.WeightedChoiceCum(cum, total) {
			diverged++
		}
	}
	if diverged > 2 {
		t.Fatalf("linear and prefix-sum samplers diverged on %d of 20000 aligned draws", diverged)
	}
}

func TestWeightedChoiceCumNeverDrawsZeroWeight(t *testing.T) {
	weights := []float64{0, 1, 0, 0, 5, 0}
	cum, total := CumWeights(weights)
	src := New(7)
	for i := 0; i < 5000; i++ {
		if got := src.WeightedChoiceCum(cum, total); weights[got] == 0 {
			t.Fatalf("drew zero-weight index %d", got)
		}
	}
}

func TestAliasChoiceDistribution(t *testing.T) {
	weights := []float64{1, 3, 0, 6}
	a := NewAlias(weights)
	src := New(1234)
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[src.AliasChoice(a)]++
	}
	if counts[2] != 0 {
		t.Fatalf("alias table drew zero-weight index 2 (%d times)", counts[2])
	}
	for i, w := range weights {
		want := w / 10 * n
		if w == 0 {
			continue
		}
		if math.Abs(float64(counts[i])-want) > 4*math.Sqrt(want) {
			t.Fatalf("index %d drawn %d times, want ≈%.0f", i, counts[i], want)
		}
	}
}

func TestAliasChoiceConsumesOneDraw(t *testing.T) {
	// Stream alignment: interleaving AliasChoice with Float64 must keep two
	// sources in lockstep when one replaces each AliasChoice with one
	// Float64 — the kernel's per-region streams rely on the 1:1 accounting.
	a := NewAlias([]float64{2, 5, 3})
	s1, s2 := New(42), New(42)
	for i := 0; i < 100; i++ {
		s1.AliasChoice(a)
		s2.Float64()
		if got, want := s1.Float64(), s2.Float64(); got != want {
			t.Fatalf("streams out of lockstep after %d draws: %v != %v", i+1, got, want)
		}
	}
}

func TestAliasDegenerateDistributions(t *testing.T) {
	// All-zero (and all-negative) weights fall back to uniform.
	src := New(5)
	for _, ws := range [][]float64{{0, 0, 0}, {-1, -2, -3}} {
		a := NewAlias(ws)
		seen := make(map[int]bool)
		for i := 0; i < 200; i++ {
			got := src.AliasChoice(a)
			if got < 0 || got >= len(ws) {
				t.Fatalf("out-of-range index %d", got)
			}
			seen[got] = true
		}
		if len(seen) != len(ws) {
			t.Fatalf("uniform fallback only drew %d of %d indices", len(seen), len(ws))
		}
	}
	// Single entry always wins.
	one := NewAlias([]float64{0.4})
	if got := src.AliasChoice(one); got != 0 {
		t.Fatalf("single-entry table drew %d", got)
	}
}

func TestAliasChoiceAlwaysValidProperty(t *testing.T) {
	src := New(77)
	f := func(raw []float64, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		ws := make([]float64, len(raw))
		for i, w := range raw {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				w = 0
			}
			ws[i] = math.Mod(math.Abs(w), 1e6)
		}
		a := NewAlias(ws)
		for i := 0; i < 50; i++ {
			got := src.AliasChoice(a)
			if got < 0 || got >= len(ws) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAliasEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AliasChoice on empty table did not panic")
		}
	}()
	New(1).AliasChoice(NewAlias(nil))
}

// Edge-case battery for the sampler trio: all-zero tables, single-element
// tables, NaN and +Inf weights, and float-error fallthrough must each
// degrade deterministically — no panic, no zero-weight index, no bias
// toward an arbitrary trailing entry.

func TestSamplerEdgeCaseTable(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		name    string
		weights []float64
		// forbidden are indices no sampler may ever return.
		forbidden []int
		// want, when >= 0, is the only index every sampler must return.
		want int
	}{
		{"single positive", []float64{3.5}, nil, 0},
		{"single zero", []float64{0}, nil, 0},
		{"single negative", []float64{-2}, nil, 0},
		{"trailing zeros", []float64{1, 2, 0, 0}, []int{2, 3}, -1},
		{"leading zeros", []float64{0, 0, 1, 2}, []int{0, 1}, -1},
		{"nan is zero", []float64{1, nan, 2}, []int{1}, -1},
		{"all nan uniform", []float64{nan, nan}, nil, -1},
		{"inf dominates", []float64{1, inf, 5}, []int{0, 2}, 1},
		{"first inf wins", []float64{inf, 2, inf}, []int{1, 2}, 0},
		{"negatives are zero", []float64{-1, 4, -3}, []int{0, 2}, 1},
		{"tiny float sums", []float64{1e-300, 2e-300, 0}, []int{2}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cum, total := CumWeights(tc.weights)
			alias := NewAlias(tc.weights)
			src := New(31)
			for i := 0; i < 2000; i++ {
				got := [3]int{
					src.WeightedChoice(tc.weights),
					src.WeightedChoiceCum(cum, total),
					src.AliasChoice(alias),
				}
				for s, g := range got {
					if g < 0 || g >= len(tc.weights) {
						t.Fatalf("sampler %d returned out-of-range %d", s, g)
					}
					if tc.want >= 0 && g != tc.want {
						t.Fatalf("sampler %d returned %d, want %d", s, g, tc.want)
					}
					for _, f := range tc.forbidden {
						if g == f {
							t.Fatalf("sampler %d drew forbidden index %d (weight %v)", s, f, tc.weights[f])
						}
					}
				}
			}
		})
	}
}

func TestWeightedChoiceCumMismatchedTotalDeterministic(t *testing.T) {
	// A caller-supplied total above the table's own sum pushes draws past
	// the last prefix; the fallback must land on the last positive-weight
	// entry, not the final (zero-weight) one — and do so deterministically.
	cum := []float64{1, 3, 3, 3} // weights {1, 2, 0, 0}
	src := New(13)
	for i := 0; i < 2000; i++ {
		got := src.WeightedChoiceCum(cum, 100) // most draws land past cum[3]=3
		if got != 0 && got != 1 {
			t.Fatalf("mismatched-total draw returned zero-weight index %d", got)
		}
	}
}

func TestLastRisingCum(t *testing.T) {
	cases := []struct {
		cum  []float64
		want int
	}{
		{[]float64{1, 3, 3, 3}, 1},
		{[]float64{0, 0, 0}, 0},
		{[]float64{2}, 0},
		{[]float64{0, 0, 5}, 2},
		{[]float64{1, 2, 3}, 2},
	}
	for _, tc := range cases {
		if got := lastRisingCum(tc.cum); got != tc.want {
			t.Fatalf("lastRisingCum(%v) = %d, want %d", tc.cum, got, tc.want)
		}
	}
}

func TestInfWeightKeepsStreamAlignment(t *testing.T) {
	// The deterministic +Inf path must still consume exactly one uniform so
	// interleaved callers stay in lockstep with the finite-weight path.
	inf := math.Inf(1)
	weights := []float64{1, inf, 2}
	cum, total := CumWeights([]float64{1, 4, 2})
	a := NewAlias(weights)
	s1, s2 := New(17), New(17)
	for i := 0; i < 50; i++ {
		s1.WeightedChoice(weights)
		s2.WeightedChoiceCum(cum, total)
		s1.AliasChoice(a)
		s2.Float64()
		if got, want := s1.Float64(), s2.Float64(); got != want {
			t.Fatalf("streams out of lockstep after %d rounds: %v != %v", i+1, got, want)
		}
	}
}
