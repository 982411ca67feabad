package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pinsJSON holds the oracle values pinned at the reference seed: a change
// to the program that alters them is a behaviour change, not a speed-up.
//
//go:embed pins.json
var pinsJSON []byte

type pins struct {
	Seed  int64 `json:"reference_seed"`
	Train struct {
		PolicySHA256 string `json:"policy_sha256"`
		Transitions  int    `json:"transitions"`
	} `json:"train"`
	Eval struct {
		Slots       int    `json:"slots"`
		TraceSHA256 string `json:"trace_sha256"`
	} `json:"eval"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}
