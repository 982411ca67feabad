package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host fingerprints the machine and toolchain a result was measured on.
// Results from different fingerprints are never compared.
type host struct {
	CPU     string `json:"cpu_model"`
	NProc   int    `json:"nproc"`
	GOAMD64 string `json:"goamd64"`
	Go      string `json:"go_version"`
}

// stamp identifies one result: where, on what code, with which inputs.
type stamp struct {
	Host     host   `json:"host"`
	Commit   string `json:"commit"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
}

// record is the full result a run writes under .bench_build/perfbench/results.
type record struct {
	Stamp        stamp                  `json:"stamp"`
	Result       result                 `json:"result"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	DecisionTail latencyTail            `json:"decision_tail"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	Trace        *traceRecord           `json:"trace,omitempty"`
	Oracle       string                 `json:"oracle"`
}

type latencyTail struct {
	Quantile float64 `json:"quantile"`
	Ms       float64 `json:"ms"`
	Samples  int     `json:"samples"`
}

// traceRecord points at a traced run's spans and totals their self times
// per span name.
type traceRecord struct {
	SpanFile string             `json:"span_file"`
	SelfMs   map[string]float64 `json:"self_ms"`
}

func (r record) write() error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Stamp.Trace {
		trace = 1
	}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", r.Stamp.Workload, r.Stamp.Seed, trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func newStamp(workload string, seed int64, seconds int, traced bool) (stamp, error) {
	commit, err := commitID()
	if err != nil {
		return stamp{}, err
	}
	return stamp{Host: hostFingerprint(), Commit: commit, Workload: workload, Seed: seed, Seconds: seconds, Trace: traced}, nil
}

func hostFingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOAMD64: "n/a", Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	return h
}

// commitID names the code under test: the git commit when the benchmark runs
// in a git work tree, otherwise "tree:" plus a SHA-256 over the checkout's
// Go sources, module files and test data.
func commitID() (string, error) {
	if _, err := os.Stat(".git"); err == nil {
		out, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err == nil {
			return strings.TrimSpace(string(out)), nil
		}
	}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json", ".fmck", ".digest":
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// compare prints the end-to-end metrics of two records side by side. It
// refuses records from different hosts or workloads: their numbers do not
// measure the same thing.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD.json NEW.json")
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Stamp.Host != b.Stamp.Host {
		return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v", a.Stamp.Host, b.Stamp.Host)
	}
	if a.Stamp.Workload != b.Stamp.Workload || a.Stamp.Seconds != b.Stamp.Seconds {
		return fmt.Errorf("refusing to compare different workloads or run lengths: %s/%ds vs %s/%ds",
			a.Stamp.Workload, a.Stamp.Seconds, b.Stamp.Workload, b.Stamp.Seconds)
	}
	fmt.Printf("%s  %s (seed %d) -> %s (seed %d)\n", a.Stamp.Workload, a.Stamp.Commit, a.Stamp.Seed, b.Stamp.Commit, b.Stamp.Seed)
	for _, d := range endToEnd {
		x, y := a.EndToEnd[d.name], b.EndToEnd[d.name]
		change := 0.0
		if x.Value != 0 {
			change = y.Value/x.Value - 1
		}
		fmt.Printf("  %-18s %12.6g -> %12.6g %-4s (%+.1f%%)\n", d.name, x.Value, y.Value, d.unit, 100*change)
	}
	return nil
}
