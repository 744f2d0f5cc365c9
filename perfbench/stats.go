package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"slices"
	"time"

	"dmra/internal/mec"
)

// minBeyond is the reporting rule for tails: a percentile is reported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// samplesFor returns the smallest sample count at which percentile q
// (0 < q < 1) has minBeyond samples beyond it under the nearest-rank
// definition of percentile.
func samplesFor(q float64) int {
	for n := minBeyond; ; n++ {
		if beyond(n, q) >= minBeyond {
			return n
		}
	}
}

// beyond counts the samples strictly above the nearest-rank q-th
// percentile of n samples (ties aside): n - ceil(q*n).
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest-rank index of percentile q in n samples.
// The product is rounded to 9 decimals first so that, say, 0.9*100 is
// rank 90 rather than 91 after binary floating-point error.
func rank(n int, q float64) int {
	r := int(math.Ceil(math.Round(q*float64(n)*1e9) / 1e9))
	return max(1, min(n, r))
}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it, or 0.5 (the median) when none
// does.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// percentile returns the nearest-rank q-th percentile of xs (which it
// sorts in place). It panics on an empty slice: every caller has already
// enforced its minimum sample count.
func percentile(xs []float64, q float64) float64 {
	slices.Sort(xs)
	return xs[rank(len(xs), q)-1]
}

// median is percentile 0.5 on a copy, leaving xs in its order.
func median(xs []float64) float64 {
	return percentile(slices.Clone(xs), 0.5)
}

// ms and secs convert a duration to float milliseconds and seconds.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// fingerprint is the FNV-1a 64 hash of an assignment's serving-BS column,
// each entry as four little-endian bytes. Equal assignments hash equal; the
// benchmark compares fingerprints across iterations, worker counts and
// runtimes, and the full slices wherever both are at hand.
func fingerprint(serving []mec.BSID) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range serving {
		v := uint32(int32(b))
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// metricDef is one metric of the benchmark's contract (BENCHMARK.json).
type metricDef struct {
	Name, Unit, Better string
}

// nameRE is the metric-name charset: a leading letter or digit, then at
// most 63 more letters, digits, '_', '.' or '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the metric-unit charset.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func validMetricName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool       { return unitRE.MatchString(s) }

// endToEnd lists the metrics every untraced run prints, on every
// workload. README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"observed_op_p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"profit", "price", "higher"},
	{"cloud_share", "ratio", "lower"},
}

// perLayer lists the metrics every traced run prints, on every workload.
var perLayer = []metricDef{
	{"workload.build_s", "s", "lower"},
	{"mec.dense_s", "s", "lower"},
	{"mec.links", "count", "lower"},
	{"alloc.rounds", "count", "lower"},
	{"alloc.proposals", "count", "lower"},
	{"alloc.accepts", "count", "higher"},
	{"alloc.rejects", "count", "lower"},
	{"engine.round1_ms", "ms", "lower"},
	{"engine.round_p50_ms", "ms", "lower"},
	{"engine.propose_speedup", "x", "higher"},
	{"obs.tax_ratio", "x", "lower"},
	{"engine.settle_p50_ms", "ms", "lower"},
	{"engine.settle_p99_ms", "ms", "lower"},
	{"engine.frontier_per_epoch", "count", "lower"},
	{"engine.invalidated_per_epoch", "count", "lower"},
	{"engine.repair_rounds_per_epoch", "count", "lower"},
	{"online.events", "count", "higher"},
	{"online.epochs", "count", "higher"},
	{"online.mean_concurrent", "count", "higher"},
	{"online.saturated", "count", "lower"},
	{"online.epoch_p50_ms", "ms", "lower"},
	{"wire.first_round_ms", "ms", "lower"},
	{"wire.round_p50_ms", "ms", "lower"},
	{"wire.rounds", "count", "lower"},
	{"wire.frames", "count", "lower"},
	{"wire.bytes_per_round", "B", "lower"},
	{"wire.handoff_proposals", "count", "lower"},
	{"wire.boundary_ues", "count", "lower"},
	{"wire.region_speedup", "x", "higher"},
	{"wire.checkpoint_tax_ratio", "x", "lower"},
	{"trace.op_p50_ms", "ms", "lower"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// complete returns the values of defs in vals with their units, or an
// error naming the first one missing or non-finite, so a run never prints
// a partial metric set.
func complete(vals map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		if !validMetricName(d.Name) || !validUnit(d.Unit) {
			return nil, fmt.Errorf("metric %q has an invalid name or unit %q", d.Name, d.Unit)
		}
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %g", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
