package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/wire"
	"dmra/internal/workload"
)

// layerPlan gives the DenseCity scale each layer group of a traced run is
// measured at. A workload measures the layers its end-to-end path runs at
// its own scale, and the rest at the smallest scale that exercises them,
// so every traced run reports every per-layer metric.
type layerPlan struct {
	// match covers workload/mec (build, dense view), the alloc/engine
	// arena match and the obs tax.
	match int
	// session covers the engine.Incremental churn driver and the online
	// session.
	session int
	// op names the workload's end-to-end operation among the traced
	// probes, for trace.op_p50_ms.
	op layerOp
}

// layerOp is a traced probe that times a workload's end-to-end operation.
type layerOp int

const (
	opMatch layerOp = iota // a RoundHook-stamped alloc match
	opEpoch                // an epoch of the traced online session
)

// wireScale is the city scale of the wire probes on every workload: the
// 1,100-UE, 25-BS city. At 110k UEs one cluster run takes ~7 s and holds
// 2,500 sockets.
const wireScale = 1

// settleTail is the tail percentile of the Settle probe.
const settleTail = 0.99

// repeats is how many times the traced suite repeats each timed probe;
// it reports medians.
const repeats = 5

// traceLayers runs the per-layer suite of one workload.
func traceLayers(r *run, plan layerPlan) {
	r.note("layer_scales", map[string]int{"match": plan.match, "session": plan.session, "wire": wireScale})
	nets := map[int]*mec.Network{}
	netAt := func(scale int) (*mec.Network, bool) {
		if n, ok := nets[scale]; ok {
			return n, true
		}
		n, err := workload.DenseCity().Scale(scale).Build(r.seed)
		if !r.op(err) {
			return nil, false
		}
		nets[scale] = n
		return n, true
	}

	// workload / mec: one timed build and dense view.
	start := time.Now()
	net, err := workload.DenseCity().Scale(plan.match).Build(r.seed)
	build := time.Since(start)
	if !r.op(err) {
		return
	}
	start = time.Now()
	csr := net.Dense()
	dense := time.Since(start)
	if csr == nil {
		r.op(errors.New("scenario has no dense candidate view"))
		return
	}
	nets[plan.match] = net
	r.set("workload.build_s", secs(build))
	r.set("mec.dense_s", secs(dense))
	r.set("mec.links", float64(csr.Links()))

	var opMS [2]float64 // the traced op's median, by layerOp
	var ok bool
	if opMS[opMatch], ok = traceMatch(r, net); !ok {
		return
	}
	sessionNet, ok := netAt(plan.session)
	if !ok || !traceSettle(r, sessionNet, plan.session) {
		return
	}
	if opMS[opEpoch], ok = traceSession(r, plan.session); !ok {
		return
	}
	clusterNet, ok := netAt(wireScale)
	if !ok {
		return
	}
	if !traceWire(r, clusterNet) {
		return
	}
	// trace.op_p50_ms is the traced run's own figure for the workload's
	// end-to-end operation, to set against op_p50_ms of an untraced run.
	r.set("trace.op_p50_ms", opMS[plan.op])
}

// traceMatch measures the alloc/engine and obs layers on net: round
// timing from RoundHook stamps, the propose-worker speedup and the
// observed-run tax. It returns the median hooked match time.
func traceMatch(r *run, net *mec.Network) (float64, bool) {
	cfg := alloc.DefaultDMRAConfig()
	ref, ok := referenceMatch(r, net)
	if !ok {
		return 0, false
	}
	want := fingerprint(ref.ServingBS)
	var res alloc.Result

	var stamps []time.Time
	hooked := alloc.NewDMRA(cfg).WithRoundHook(func(*engine.Snapshot) { stamps = append(stamps, time.Now()) })
	var first, gaps, totals []float64
	for i := 0; i < repeats; i++ {
		stamps = stamps[:0]
		start := time.Now()
		err := hooked.AllocateInto(net, &res)
		totals = append(totals, ms(time.Since(start)))
		if err == nil && len(stamps) != res.Stats.Iterations {
			err = fmt.Errorf("round hook fired %d times over %d rounds", len(stamps), res.Stats.Iterations)
		}
		if !r.op(checkMatch(err, net, &res, want)) {
			return 0, false
		}
		first = append(first, ms(stamps[0].Sub(start)))
		for j := 1; j < len(stamps); j++ {
			gaps = append(gaps, ms(stamps[j].Sub(stamps[j-1])))
		}
	}
	r.set("alloc.rounds", float64(res.Stats.Iterations))
	r.set("alloc.proposals", float64(res.Stats.Proposals))
	r.set("alloc.accepts", float64(res.Stats.Accepts))
	r.set("alloc.rejects", float64(res.Stats.Rejects))
	r.set("engine.round1_ms", median(first))
	r.set("engine.round_p50_ms", median(gaps))

	plain := alloc.NewDMRA(cfg)
	single := alloc.NewDMRA(cfg).WithProposeWorkers(1)
	observed := alloc.NewDMRA(cfg).WithObserver(newRecorder())
	var plainMS, singleMS, observedMS []float64
	for i := 0; i < repeats; i++ {
		for _, p := range []struct {
			d   *alloc.DMRA
			out *[]float64
		}{{plain, &plainMS}, {single, &singleMS}, {observed, &observedMS}} {
			start := time.Now()
			err := p.d.AllocateInto(net, &res)
			*p.out = append(*p.out, ms(time.Since(start)))
			if !r.op(checkMatch(err, net, &res, want)) {
				return 0, false
			}
		}
	}
	r.set("engine.propose_speedup", median(singleMS)/median(plainMS))
	r.set("obs.tax_ratio", median(observedMS)/median(plainMS))
	return median(totals), true
}

// traceSettle drives engine.Incremental directly with the online-churn
// arrival and departure process, one Settle per simulated epoch, and
// times each Settle. It runs rampS plus enough epochs for a p99.
func traceSettle(r *run, net *mec.Network, scale int) bool {
	var inc engine.Incremental
	if !r.op(inc.Begin(net, engine.Config(alloc.DefaultDMRAConfig()), 0)) {
		return false
	}
	rate := arrivalsPerUE * float64(len(net.UEs))
	epochs := rampS + samplesFor(settleTail)
	src := rand.New(rand.NewPCG(r.seed, uint64(scale)))
	inactive := make([]mec.UEID, len(net.UEs))
	for u := range inactive {
		inactive[u] = mec.UEID(u)
	}
	departAt := make([][]mec.UEID, epochs+1)
	var settles []float64
	next := src.ExpFloat64() / rate
	for e := 1; e <= epochs; e++ {
		// One operation per epoch: its arrivals, departures and Settle.
		var err error
		for ; next <= float64(e); next += src.ExpFloat64() / rate {
			if len(inactive) == 0 || err != nil {
				continue
			}
			i := src.IntN(len(inactive))
			u := inactive[i]
			inactive[i] = inactive[len(inactive)-1]
			inactive = inactive[:len(inactive)-1]
			err = inc.Arrive(u)
			if d := int(math.Ceil(next + src.ExpFloat64()*meanHoldS)); d <= epochs {
				departAt[d] = append(departAt[d], u)
			}
		}
		for _, u := range departAt[e] {
			inc.Depart(u)
			inactive = append(inactive, u)
		}
		start := time.Now()
		if err == nil {
			_, err = inc.Settle()
		}
		el := time.Since(start)
		if !r.op(err) {
			return false
		}
		if e > rampS {
			settles = append(settles, ms(el))
		}
	}
	if !r.op(inc.CheckInvariants()) {
		return false
	}
	r.set("engine.settle_p50_ms", median(settles))
	r.set("engine.settle_p99_ms", percentile(settles, settleTail))
	return true
}

// traceSession runs one online-churn session at the given scale and
// reports the online layer's counters and the delta-repair work per epoch.
// It returns the median epoch time.
func traceSession(r *run, scale int) (float64, bool) {
	s, err := runSession(sessionConfig(scale, r.seed))
	if !r.op(err) {
		return 0, false
	}
	rep := s.rep
	epochs := float64(rep.Epochs)
	r.set("engine.frontier_per_epoch", float64(rep.DeltaFrontier)/epochs)
	r.set("engine.invalidated_per_epoch", float64(rep.DeltaInvalidated)/epochs)
	r.set("engine.repair_rounds_per_epoch", float64(rep.DeltaRepairRounds)/epochs)
	r.set("online.events", float64(rep.Events))
	r.set("online.epochs", epochs)
	r.set("online.mean_concurrent", rep.MeanConcurrent)
	r.set("online.saturated", float64(rep.Saturated))
	epoch := median(s.epochMS)
	r.set("online.epoch_p50_ms", epoch)
	return epoch, true
}

// referenceMatch is alloc DMRA's assignment on net.
func referenceMatch(r *run, net *mec.Network) (mec.Assignment, bool) {
	res, err := alloc.NewDMRA(alloc.DefaultDMRAConfig()).Allocate(net)
	if !r.op(err) || !r.op(mec.ValidateAssignment(net, res.Assignment)) {
		return mec.Assignment{}, false
	}
	return res.Assignment, true
}

// checkParity compares a cluster run's assignment with the in-memory
// solver's on the same network: the three-runtime parity invariant.
func checkParity(err error, res wire.RegionResult, ref mec.Assignment) error {
	if err != nil {
		return fmt.Errorf("wire.RunRegionCluster: %w", err)
	}
	if !slices.Equal(res.Assignment.ServingBS, ref.ServingBS) {
		return fmt.Errorf("wire.RunRegionCluster: assignment %016x differs from alloc DMRA's %016x",
			fingerprint(res.Assignment.ServingBS), fingerprint(ref.ServingBS))
	}
	return nil
}

// traceWire measures the wire layer on net: round timing from RoundHook
// stamps, frame and byte counts, the region speedup (one region against
// one per CPU) and the checkpoint tax.
func traceWire(r *run, net *mec.Network) bool {
	ref, ok := referenceMatch(r, net)
	if !ok {
		return false
	}
	regions := runtime.NumCPU()
	rc := wire.RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: regions}

	var stamps []time.Time
	hooked := rc
	hooked.RoundHook = func(*engine.Snapshot) { stamps = append(stamps, time.Now()) }
	var first, gaps []float64
	var res wire.RegionResult
	for i := 0; i < repeats; i++ {
		stamps = stamps[:0]
		start := time.Now()
		var err error
		res, err = wire.RunRegionCluster(net, hooked)
		if err == nil && len(stamps) == 0 {
			err = errors.New("wire.RunRegionCluster: round hook never fired")
		}
		if !r.op(checkParity(err, res, ref)) {
			return false
		}
		first = append(first, ms(stamps[0].Sub(start)))
		for j := 1; j < len(stamps); j++ {
			gaps = append(gaps, ms(stamps[j].Sub(stamps[j-1])))
		}
	}
	r.set("wire.first_round_ms", median(first))
	r.set("wire.round_p50_ms", median(gaps))
	r.set("wire.rounds", float64(res.Rounds))
	r.set("wire.frames", float64(res.Frames))
	r.set("wire.bytes_per_round", float64(res.BytesSent+res.BytesReceived)/float64(res.Rounds))
	r.set("wire.handoff_proposals", float64(res.HandoffProposals))
	r.set("wire.boundary_ues", float64(res.BoundaryUEs))

	dir, err := os.MkdirTemp(r.scratch, "perfbench-checkpoint-")
	if !r.op(err) {
		return false
	}
	defer os.RemoveAll(dir)
	one := rc
	one.Regions = 1
	ckpt := rc
	ckpt.CheckpointPath = filepath.Join(dir, "checkpoint.json")
	var manyMS, oneMS, ckptMS []float64
	for i := 0; i < repeats; i++ {
		for _, p := range []struct {
			rc  wire.RegionConfig
			out *[]float64
		}{{rc, &manyMS}, {one, &oneMS}, {ckpt, &ckptMS}} {
			start := time.Now()
			res, err := wire.RunRegionCluster(net, p.rc)
			*p.out = append(*p.out, ms(time.Since(start)))
			if !r.op(checkParity(err, res, ref)) {
				return false
			}
		}
	}
	r.set("wire.region_speedup", median(oneMS)/median(manyMS))
	r.set("wire.checkpoint_tax_ratio", median(ckptMS)/median(manyMS))
	r.note("wire_regions", regions)
	return true
}
