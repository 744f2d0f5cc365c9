// Command perfbench is the repository's benchmark: it runs one named
// workload against the DMRA modules from outside, through their public
// functions, for a fixed wall-clock budget, checks every output, and
// prints its metrics as one JSON line.
//
//	perfbench --workload densecity-match --seed 1 --seconds 60 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of the workload;
// with --trace 1 it runs the per-layer suite instead. perfbench/run.sh
// builds and runs it; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// commit is stamped by run.sh at build time.
var commit = "unknown"

// defaultSeed is the seed the benchmark uses when none is given.
const defaultSeed = 1

// workloadDef is one named workload: its end-to-end loop and the scales
// its traced run measures each layer group at.
type workloadDef struct {
	name   string
	e2e    func(*run)
	layers layerPlan
}

var workloads = []workloadDef{
	{"densecity-match", denseCityMatch, layerPlan{match: 10, session: 1, op: opMatch}},
	{"online-churn", onlineChurn, layerPlan{match: sessionScale, session: sessionScale, op: opEpoch}},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// run is the state of one benchmark invocation: its inputs, the metric
// values measured so far, the operation counts, and the record of what
// it ran.
type run struct {
	seed    uint64
	seconds time.Duration
	scratch string

	vals      map[string]float64
	attempted int
	failed    int
	record    map[string]any
}

// op counts one attempted operation and reports whether it succeeded; a
// non-nil err marks it failed and is printed to standard error.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	return true
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

// note adds a key to the run record.
func (r *run) note(key string, v any) { r.record[key] = v }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(benchmark(os.Args[1:], os.Stdout))
}

// benchmark runs one invocation with the given arguments, writes the
// record and result lines to stdout, and returns the exit code.
func benchmark(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: densecity-match or online-churn")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 60, "wall-clock seconds the measured loop runs (at least)")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics, 1 runs the per-layer suite")
	scratch := fs.String("scratch", "", "directory for temporary files (default: the OS temp directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (densecity-match or online-churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		scratch: *scratch,
		vals:    map[string]float64{},
		record: map[string]any{
			"workload":   w.name,
			"seed":       *seed,
			"trace":      *trace,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
			"go":         runtime.Version(),
			"commit":     commit,
		},
	}
	defs := endToEnd
	start := time.Now()
	if *trace == 1 {
		defs = perLayer
		traceLayers(r, w.layers)
	} else {
		w.e2e(r)
		r.set("peak_rss_mb", peakRSSMB())
	}
	r.note("wall_s", time.Since(start).Seconds())

	res := result{Attempted: r.attempted, Failed: r.failed}
	ms, err := complete(r.vals, defs)
	if err != nil {
		r.op(err)
		res.Attempted, res.Failed = r.attempted, r.failed
		ms = partial(r.vals, defs)
	}
	res.Metrics = ms
	res.Correct = r.failed == 0
	if err := printJSON(stdout, map[string]any{"record": r.record}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// partial returns whichever of defs were measured, for the result line of
// a failed run.
func partial(vals map[string]float64, defs []metricDef) map[string]metric {
	out := map[string]metric{}
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			out[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	}
	return out
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
