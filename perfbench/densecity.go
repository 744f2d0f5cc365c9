package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/workload"
)

const (
	// setupRepeats is how many times a run builds its scenario; setup_s
	// is the median.
	setupRepeats = 5
	// observeEvery interleaves one observed operation after every this
	// many plain ones, so both face the same heap and socket state.
	observeEvery = 4
	// minObserved is the fewest observed operations a run takes.
	minObserved = 5
	// tailQ is the gated tail percentile on every workload. A run takes
	// at least samplesFor(tailQ) = 100 operations, so it always has 10
	// samples beyond it; the record adds the highest percentile the run's
	// own count supports.
	tailQ = 0.9
)

// timedBuild builds DenseCity().Scale(scale) from seed with its dense
// candidate view and returns it with the time taken in seconds.
func timedBuild(r *run, scale int, seed uint64) (*mec.Network, float64, bool) {
	start := time.Now()
	net, err := workload.DenseCity().Scale(scale).Build(seed)
	if !r.op(err) {
		return nil, 0, false
	}
	if net.Dense() == nil {
		r.op(errors.New("scenario has no dense candidate view"))
		return nil, 0, false
	}
	return net, secs(time.Since(start)), true
}

// newRecorder is the observability stack dmra-sim -obs-addr attaches: a
// metrics registry plus the in-memory event ring, with no trace file.
func newRecorder() *obs.Recorder {
	return obs.NewRecorder(obs.NewRegistry(), obs.NewSink(nil, 4096))
}

// checkMatch validates a match result against the scenario and the
// reference fingerprint.
func checkMatch(err error, net *mec.Network, res *alloc.Result, want uint64) error {
	if err != nil {
		return fmt.Errorf("match: %w", err)
	}
	if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
		return fmt.Errorf("match: %w", err)
	}
	if got := fingerprint(res.Assignment.ServingBS); got != want {
		return fmt.Errorf("match: assignment fingerprint %016x, want %016x", got, want)
	}
	return nil
}

// denseCityMatch repeats a from-scratch DMRA match on the 110k-UE dense
// city in a closed loop with one caller. Every match is validated and
// must reproduce the warm-up match's assignment, as must the observed
// matches interleaved with it and a single-worker match at the end.
func denseCityMatch(r *run) {
	const scale = 10
	var net *mec.Network
	setups := make([]float64, setupRepeats)
	for i := range setups {
		net = nil
		runtime.GC() // drop the previous build, so peak RSS holds one city
		var ok bool
		if net, setups[i], ok = timedBuild(r, scale, r.seed); !ok {
			return
		}
	}
	r.set("setup_s", median(setups))
	r.note("sizes", map[string]any{"scale": scale, "ues": len(net.UEs), "bss": len(net.BSs), "links": net.Dense().Links()})

	cfg := alloc.DefaultDMRAConfig()
	plain := alloc.NewDMRA(cfg)
	observed := alloc.NewDMRA(cfg).WithObserver(newRecorder())
	var res alloc.Result
	if !r.op(plain.AllocateInto(net, &res)) {
		return
	}
	if !r.op(mec.ValidateAssignment(net, res.Assignment)) {
		return
	}
	ref := res.Assignment.Clone()
	want := fingerprint(ref.ServingBS)

	need := samplesFor(tailQ)
	var times, obsTimes []float64
	start := time.Now()
	for time.Since(start) < r.seconds || len(times) < need || len(obsTimes) < minObserved {
		t0 := time.Now()
		err := plain.AllocateInto(net, &res)
		el := time.Since(t0)
		if !r.op(checkMatch(err, net, &res, want)) {
			return
		}
		times = append(times, ms(el))
		if len(times)%observeEvery == 0 {
			t0 = time.Now()
			err = observed.AllocateInto(net, &res)
			el = time.Since(t0)
			if !r.op(checkMatch(err, net, &res, want)) {
				return
			}
			obsTimes = append(obsTimes, ms(el))
		}
	}
	single := alloc.NewDMRA(cfg).WithProposeWorkers(1)
	if !r.op(checkMatch(single.AllocateInto(net, &res), net, &res, want)) {
		return
	}

	setOpMetrics(r, times, obsTimes)
	r.set("throughput_per_s", float64(len(times))/(sum(times)/1e3))
	r.set("profit", mec.Profit(net, ref).TotalProfit())
	r.set("cloud_share", float64(ref.CloudCount())/float64(len(ref.ServingBS)))
	r.note("op", "full DMRA match (alloc.DMRA.AllocateInto)")
	r.note("fingerprint", fmt.Sprintf("%016x", want))
	r.note("rounds", res.Stats.Iterations)
	r.note("proposals", res.Stats.Proposals)
}

// setOpMetrics sets the operation latency metrics from plain and observed
// samples in milliseconds, and records the sample counts and the highest
// percentile with 10 samples beyond it.
func setOpMetrics(r *run, times, obsTimes []float64) {
	q := tailPercentile(len(times))
	r.set("op_p50_ms", median(times))
	r.set("op_p90_ms", percentile(times, tailQ))
	r.set("observed_op_p50_ms", median(obsTimes))
	r.note("samples", len(times))
	r.note("observed_samples", len(obsTimes))
	r.note("tail", map[string]float64{"percentile": q, "ms": percentile(times, q)})
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
