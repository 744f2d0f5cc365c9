// Differential tests pinning the struct-of-arrays arena engine to the
// naive reference: identical assignments, statistics, ordered event
// streams, and per-round snapshots, at every propose worker count, on
// full networks and on SubView epochs. In package alloc_test so it can drive internal/protocol
// (which imports alloc) for the cross-runtime event comparison.
package alloc_test

import (
	"os"
	"strconv"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/protocol"
	"dmra/internal/workload"
)

// soaTestWorkers returns the propose-worker counts the SoA parity tests
// sweep. scripts/check.sh sets DMRA_TEST_PROPOSE_WORKERS to pin a single
// width (1 and 3, race-enabled) the way the wire suite sweeps
// DMRA_TEST_SHARDS; unset, the tests sweep a spread locally.
func soaTestWorkers() []int {
	if v := os.Getenv("DMRA_TEST_PROPOSE_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			panic("DMRA_TEST_PROPOSE_WORKERS must be an integer, got " + v)
		}
		return []int{n}
	}
	return []int{1, 2, 3, 7}
}

// soaRun executes one observed allocation and returns everything the
// parity checks compare: the result, the ordered event stream, and the
// per-round snapshot clones.
func soaRun(t *testing.T, d *alloc.DMRA, net *mec.Network) (alloc.Result, []obs.Event, []*engine.Snapshot) {
	t.Helper()
	sink := obs.NewSink(nil, 1<<17)
	var snaps []*engine.Snapshot
	d.WithObserver(obs.NewRecorder(nil, sink)).
		WithRoundHook(func(s *engine.Snapshot) { snaps = append(snaps, s.Clone()) })
	res, err := d.Allocate(net)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if int64(len(sink.Events())) != sink.Total() {
		t.Fatalf("event ring dropped events: %d buffered, %d emitted", len(sink.Events()), sink.Total())
	}
	return res, sink.Events(), snaps
}

// compareRuns asserts two observed runs are byte-identical: same
// assignment, statistics, event stream, and snapshot sequence.
func compareRuns(t *testing.T, label string,
	aRes alloc.Result, aEvents []obs.Event, aSnaps []*engine.Snapshot,
	bRes alloc.Result, bEvents []obs.Event, bSnaps []*engine.Snapshot) {
	t.Helper()
	if aRes.Stats != bRes.Stats {
		t.Fatalf("%s: stats diverge: %+v vs %+v", label, aRes.Stats, bRes.Stats)
	}
	for u := range aRes.Assignment.ServingBS {
		if aRes.Assignment.ServingBS[u] != bRes.Assignment.ServingBS[u] {
			t.Fatalf("%s: UE %d: %d vs %d", label, u,
				aRes.Assignment.ServingBS[u], bRes.Assignment.ServingBS[u])
		}
	}
	if len(aEvents) != len(bEvents) {
		t.Fatalf("%s: %d events vs %d", label, len(aEvents), len(bEvents))
	}
	for i := range aEvents {
		if aEvents[i].Key() != bEvents[i].Key() || aEvents[i].Kind != bEvents[i].Kind {
			t.Fatalf("%s: event %d: %+v vs %+v", label, i, aEvents[i], bEvents[i])
		}
	}
	if len(aSnaps) != len(bSnaps) {
		t.Fatalf("%s: %d snapshots vs %d", label, len(aSnaps), len(bSnaps))
	}
	for i := range aSnaps {
		if diff := aSnaps[i].Diff(bSnaps[i]); diff != nil {
			t.Fatalf("%s: snapshot %d diverges:\n%v", label, i, diff)
		}
	}
}

// TestSoAParity pins the SoA arena engine against the naive reference
// on a spread of scenario seeds, at every swept worker count:
// assignments, statistics, ordered event streams, and round snapshots
// must be byte-identical. Race-enabled runs of this test (check.sh's
// soa-parity gate at workers 3) double as the data-race gate on the
// parallel propose merge.
func TestSoAParity(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 1234} {
		net, err := alloc.GenScenarioForTest(seed).Build(seed)
		if err != nil {
			continue
		}
		if net.Dense() == nil {
			t.Fatalf("seed %d: NewNetwork-built scenario has no dense view", seed)
		}
		dcfg := alloc.DefaultDMRAConfig()
		naiveRes, naiveEvents, naiveSnaps := soaRun(t, alloc.NewDMRA(dcfg).ForceNaive(), net)
		for _, workers := range soaTestWorkers() {
			res, events, snaps := soaRun(t, alloc.NewDMRA(dcfg).WithProposeWorkers(workers), net)
			compareRuns(t, "seed "+strconv.FormatUint(seed, 10)+" workers "+strconv.Itoa(workers),
				res, events, snaps, naiveRes, naiveEvents, naiveSnaps)
		}
	}
}

// TestSoARoundHookSerialVsParallel is the satellite regression test for
// the RoundHook contract: snapshots exported by the arena engine must be
// identical under serial and parallel propose, round by round.
func TestSoARoundHookSerialVsParallel(t *testing.T) {
	seed := uint64(4242)
	net, err := alloc.GenScenarioForTest(seed).Build(seed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dcfg := alloc.DefaultDMRAConfig()
	serialRes, serialEvents, serialSnaps := soaRun(t, alloc.NewDMRA(dcfg).WithProposeWorkers(1), net)
	if len(serialSnaps) == 0 {
		t.Fatal("round hook never fired")
	}
	for _, workers := range []int{2, 3, 5, 16} {
		res, events, snaps := soaRun(t, alloc.NewDMRA(dcfg).WithProposeWorkers(workers), net)
		compareRuns(t, "workers "+strconv.Itoa(workers),
			res, events, snaps, serialRes, serialEvents, serialSnaps)
	}
}

// TestSoASmoke50k runs a 53,900-UE dense-city match (the base rush-hour
// scenario at edge scale 7) with parallel propose and pins it to the
// serial arena engine: identical statistics and assignments at every
// swept worker count. At this population the pending list splits into
// many real chunks per round, so a race-enabled run (check.sh's
// soa-parity gate at workers 3) exercises the merge at benchmark-like
// scale, not toy scale. Plain Allocate, no observer: the event volume
// here would swamp the test sink, and stream-level parity is already
// pinned by TestSoAParity and FuzzSoAParity.
func TestSoASmoke50k(t *testing.T) {
	net, err := workload.DenseCity().Scale(7).Build(1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dcfg := alloc.DefaultDMRAConfig()
	serial, err := alloc.NewDMRA(dcfg).WithProposeWorkers(1).Allocate(net)
	if err != nil {
		t.Fatalf("serial allocate: %v", err)
	}
	if err := mec.ValidateAssignment(net, serial.Assignment); err != nil {
		t.Fatalf("serial assignment infeasible: %v", err)
	}
	if serial.Stats.Accepts == 0 {
		t.Fatal("50k scenario matched nothing; smoke is vacuous")
	}
	// Pin the arena to the naive reference at benchmark-like scale.
	naive, err := alloc.NewDMRA(dcfg).ForceNaive().Allocate(net)
	if err != nil {
		t.Fatalf("naive allocate: %v", err)
	}
	if naive.Stats != serial.Stats {
		t.Fatalf("arena stats diverge from naive: %+v vs %+v", serial.Stats, naive.Stats)
	}
	for u := range naive.Assignment.ServingBS {
		if naive.Assignment.ServingBS[u] != serial.Assignment.ServingBS[u] {
			t.Fatalf("UE %d: arena %d vs naive %d", u,
				serial.Assignment.ServingBS[u], naive.Assignment.ServingBS[u])
		}
	}
	for _, workers := range soaTestWorkers() {
		if workers == 1 {
			continue
		}
		par, err := alloc.NewDMRA(dcfg).WithProposeWorkers(workers).Allocate(net)
		if err != nil {
			t.Fatalf("workers %d: allocate: %v", workers, err)
		}
		if par.Stats != serial.Stats {
			t.Fatalf("workers %d: stats diverge: %+v vs serial %+v", workers, par.Stats, serial.Stats)
		}
		for u := range serial.Assignment.ServingBS {
			if par.Assignment.ServingBS[u] != serial.Assignment.ServingBS[u] {
				t.Fatalf("workers %d: UE %d: %d vs serial %d", workers, u,
					par.Assignment.ServingBS[u], serial.Assignment.ServingBS[u])
			}
		}
	}
}

// drainedEpoch turns net into an online-style epoch network: a SubView
// refreshed over a seed-chosen subset of UEs, against a ledger that
// earlier grants have drained. A quarter of the UEs are granted greedily
// (first servable candidate, ascending UE order), which fills low-ID BSs
// to exhaustion; half the population is active and the last quarter
// stays inactive. The view is first refreshed over the whole population
// and densified, so the real refresh reuses larger buffers, as an online
// session's does.
func drainedEpoch(net *mec.Network, seed uint64) *mec.Network {
	state := mec.NewState(net)
	var active []mec.UEID
	for u := range net.UEs {
		uid := mec.UEID(u)
		switch (uint64(u)*2654435761 + seed) % 4 {
		case 0:
			for _, l := range net.Candidates(uid) {
				if state.CanServe(uid, l.BS) {
					if err := state.Assign(uid, l.BS); err != nil {
						panic(err)
					}
					break
				}
			}
		case 1, 2:
			active = append(active, uid)
		}
	}
	sv := net.NewSubView()
	all := make([]mec.UEID, len(net.UEs))
	for u := range all {
		all[u] = mec.UEID(u)
	}
	sv.Refresh(all, mec.NewState(net)).Dense()
	return sv.Refresh(active, state)
}

// FuzzSoAParity is the SoA differential fuzz gate: on random scenarios,
// configurations, and propose-worker counts, the arena engine must match
// the naive reference byte for byte — assignment, statistics, ordered
// event stream, round snapshots — on the full network or (flags bit 2)
// on a drained SubView epoch, and the message-passing protocol runtime
// must reproduce the arena's outcome (the wire runtime is pinned to the
// protocol stream, with seed-derived SoA worker counts on its solver
// side, by FuzzEngineParity in internal/wire — closing the three-runtime
// loop).
func FuzzSoAParity(f *testing.F) {
	f.Add(uint64(1), int16(250), uint8(0), uint8(1))
	f.Add(uint64(7), int16(0), uint8(1), uint8(3))
	f.Add(uint64(42), int16(777), uint8(2), uint8(2))
	f.Add(uint64(1234), int16(1000), uint8(3), uint8(8))
	f.Add(uint64(99), int16(31), uint8(0), uint8(0))
	f.Add(uint64(42), int16(-1600), uint8(0), uint8(2))
	f.Add(uint64(7), int16(-16), uint8(1), uint8(3))
	f.Add(uint64(1), int16(250), uint8(4), uint8(1))
	f.Add(uint64(42), int16(777), uint8(6), uint8(3))
	f.Add(uint64(99), int16(-160), uint8(5), uint8(2))
	f.Add(uint64(1234), int16(0), uint8(7), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, rhoRaw int16, flags, workersRaw uint8) {
		wl := alloc.GenScenarioForTest(seed)
		if flags&4 != 0 {
			// Small CRU pools, so the earlier grants drain BSs and the
			// epoch's UEs contend for what is left.
			wl.CRUCapMin, wl.CRUCapMax = 6, 16
		}
		net, err := wl.Build(seed)
		if err != nil {
			t.Skip() // generator can produce shapes Build rejects; not under test
		}
		if flags&4 != 0 {
			net = drainedEpoch(net, seed)
		}
		workers := 1 + int(workersRaw%8)
		dcfg := alloc.DMRAConfig{
			Rho:        float64(rhoRaw) / 4,
			SPPriority: flags&1 == 0,
			FuTieBreak: flags&2 == 0,
		}

		naiveRes, naiveEvents, naiveSnaps := soaRun(t, alloc.NewDMRA(dcfg).ForceNaive(), net)
		soaRes, soaEvents, soaSnaps := soaRun(t, alloc.NewDMRA(dcfg).WithProposeWorkers(workers), net)
		compareRuns(t, "soa vs naive", soaRes, soaEvents, soaSnaps, naiveRes, naiveEvents, naiveSnaps)

		// Cross-runtime: the message-passing protocol must reproduce the SoA
		// solver's assignment and round/request/verdict counters exactly.
		// (Its event stream legitimately differs in kind vocabulary — it
		// emits permanent rejects and broadcasts the synchronous solver
		// folds into the next round — so the stream-level gate is
		// solver-vs-solver above and protocol-vs-wire in internal/wire.)
		pres, err := protocol.Run(net, protocol.Config{DMRA: dcfg, LatencyS: 1e-3})
		if err != nil {
			t.Fatalf("protocol: %v", err)
		}
		for u := range soaRes.Assignment.ServingBS {
			if pres.Assignment.ServingBS[u] != soaRes.Assignment.ServingBS[u] {
				t.Fatalf("UE %d: protocol -> %d, soa -> %d",
					u, pres.Assignment.ServingBS[u], soaRes.Assignment.ServingBS[u])
			}
		}
		if pres.Rounds != soaRes.Stats.Iterations || pres.Requests != soaRes.Stats.Proposals ||
			pres.Accepts != soaRes.Stats.Accepts || pres.Rejects != soaRes.Stats.Rejects {
			t.Fatalf("protocol counters (%d rounds, %d reqs, %d acc, %d rej) != soa stats %+v",
				pres.Rounds, pres.Requests, pres.Accepts, pres.Rejects, soaRes.Stats)
		}
	})
}
