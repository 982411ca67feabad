package nn

import (
	"strings"
	"testing"
)

func TestLoadRejectsMalformed(t *testing.T) {
	ok := LayerData{In: 2, Out: 3, Act: Tanh, W: make([]float32, 6), B: make([]float32, 3)}

	cases := []struct {
		name    string
		layers  []LayerData
		wantSub string
	}{
		{"empty network", nil, "empty network"},
		{"zero input width", []LayerData{{In: 0, Out: 3, B: make([]float32, 3)}}, "invalid shape"},
		{"negative output width", []LayerData{{In: 2, Out: -1}}, "invalid shape"},
		{"weight count mismatch", []LayerData{{In: 2, Out: 3, W: make([]float32, 5), B: make([]float32, 3)}}, "weights"},
		{"bias count mismatch", []LayerData{{In: 2, Out: 3, W: make([]float32, 6), B: make([]float32, 2)}}, "biases"},
		{"activation below range", []LayerData{{In: 2, Out: 3, Act: -1, W: make([]float32, 6), B: make([]float32, 3)}}, "unknown activation"},
		{"activation above range", []LayerData{{In: 2, Out: 3, Act: Tanh + 1, W: make([]float32, 6), B: make([]float32, 3)}}, "unknown activation"},
		{"layers do not chain", []LayerData{ok, {In: 4, Out: 1, W: make([]float32, 4), B: make([]float32, 1)}}, "does not chain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Load(tc.layers)
			if err == nil {
				t.Fatal("malformed layers loaded without error")
			}
			if m != nil {
				t.Error("Load returned a network alongside an error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
