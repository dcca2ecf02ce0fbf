package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// expectedChecks names the correctness checks each workload must run; a
// run that skips one fails the self-test.
var expectedChecks = map[string][]string{
	"cart": {
		"cart: every read agrees with the client's model",
		"cart: acknowledged state matches the model",
		"cart: reopened state equals the acknowledged state",
	},
	"chat-sync": {
		"chat-sync: each round's last message is readable on the peer",
		"chat-sync: identical heads on every channel",
		"chat-sync: every message appears exactly once",
		"chat-sync join: identical heads on every channel",
		"chat-sync join: every message appears exactly once",
	},
	"mesh-fanout": {
		"mesh-fanout: every write is visible on every peer before the drain deadline",
		"mesh-fanout: hits-i equals the writes issued at origin i on every node",
		"mesh-fanout: heads identical after the drain",
	},
}

// tracedChecks are the checks the traced half adds.
var tracedChecks = map[string][]string{
	"cart": {
		"cart traced: every read agrees with the client's model",
		"cart traced: acknowledged state matches the model",
		"cart traced: reopened state equals the acknowledged state",
	},
	"chat-sync": {
		"chat-sync traced: each round's last message is readable on the peer",
		"chat-sync traced: identical heads on every channel",
		"chat-sync traced: every message appears exactly once",
		"chat-sync traced join: identical heads on every channel",
		"chat-sync traced join: every message appears exactly once",
	},
	"mesh-fanout": {
		"mesh-fanout traced: every write is visible on every peer before the drain deadline",
		"mesh-fanout traced: hits-i equals the writes issued at origin i on every node",
		"mesh-fanout traced: heads identical after the drain",
	},
}

// TestWorkloadsToySize runs every workload at toy size, untraced and
// traced, and checks that each emits every metric with its unit and runs
// every correctness check.
func TestWorkloadsToySize(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{seed: 7, seconds: 1500 * time.Millisecond, trace: trace, dir: t.TempDir(), toy: true}
				cfg.out = cfg.dir
				rep, out, err := execute(w, cfg, environment(w, cfg.seed, "test"))
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d; checks %+v", out.Correct, out.Attempted, out.Failed, rep.Checks)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("last line has %d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("last line: metric %s = %+v, want unit %q", d.name, m, d.unit)
					}
				}
				for _, d := range slices.Concat(endToEnd, reported, w.only) {
					if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("report: metric %s = %+v, want unit %q", d.name, m, d.unit)
					}
				}
				for _, d := range endToEnd {
					if m := rep.Metrics[d.name]; m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				checks := expectedChecks[w.name]
				if trace {
					checks = append(slices.Clone(checks), tracedChecks[w.name]...)
					for _, d := range []string{"trace.overhead_pct", "wire.encode_ns", "delta.make_ns", "store.apply_self_ns"} {
						if _, ok := rep.Metrics[d]; !ok {
							t.Errorf("traced run did not measure %s", d)
						}
					}
					if _, err := os.Stat(filepath.Join(cfg.out, "spans-"+w.name+".tsv")); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
				for _, c := range checks {
					if !slices.ContainsFunc(rep.Checks, func(k check) bool { return k.Name == c }) {
						t.Errorf("check %q did not run", c)
					}
				}
				if _, err := json.Marshal(out); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark emits, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("workloads %v, benchmark runs %v", names, have)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []def) {
		var a, b []string
		for _, m := range listed {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, d := range defs {
			b = append(b, d.name+" "+d.unit)
		}
		if !slices.Equal(a, b) {
			t.Errorf("%s in BENCHMARK.json:\n%s\nemitted:\n%s", kind, strings.Join(a, ", "), strings.Join(b, ", "))
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
