package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"dmra/internal/mec"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}} {
		if got := samplesFor(c.q); got != c.want {
			t.Errorf("samplesFor(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {1920, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := median(xs); got != 50 {
		t.Errorf("median(1..100) = %g, want 50", got)
	}
	if xs[0] != 100 {
		t.Error("median reordered its input")
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90(1..100) = %g, want 90 (10 samples beyond)", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
}

func TestFingerprint(t *testing.T) {
	if got := fingerprint(nil); got != 0xcbf29ce484222325 {
		t.Errorf("fingerprint(nil) = %x, want the FNV-64a offset basis", got)
	}
	a := []mec.BSID{0, 3, mec.CloudBS, 7}
	if fingerprint(a) != fingerprint(slices.Clone(a)) {
		t.Error("equal assignments hash differently")
	}
	for i := range a {
		b := slices.Clone(a)
		b[i]++
		if fingerprint(b) == fingerprint(a) {
			t.Errorf("changing UE %d's BS left the fingerprint unchanged", i)
		}
	}
	if fingerprint([]mec.BSID{1, 2}) == fingerprint([]mec.BSID{2, 1}) {
		t.Error("fingerprint ignores which UE holds which BS")
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "p50/ms", "é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "0", "setup_s", "engine.round_p50_ms", "x-y", strings.Repeat("a", 64)} {
		if !validMetricName(good) {
			t.Errorf("validMetricName(%q) = false", good)
		}
	}
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !validMetricName(d.Name) || !validUnit(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("bad metric definition %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	var e2e []metricDef
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEnd)
	}
	if !slices.Equal(s.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", s.PerLayer, perLayer)
	}
}

// heldOutSeed is not used anywhere else in the benchmark's development.
const heldOutSeed = "1009"

// TestHeldOutSeed runs every workload, untraced and traced, on a seed the
// benchmark was not tuned on, and requires every check to pass and every
// metric to be printed. It takes about a minute; -short skips it.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := benchmark([]string{"--workload", w.name, "--seed", heldOutSeed, "--seconds", "1", "--trace", trace, "--scratch", t.TempDir()}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v", code, res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v", d.Name, m)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "densecity-match", "--seconds", "0"},
		{"--workload", "densecity-match", "--trace", "2"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := benchmark(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("benchmark(%q) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}
