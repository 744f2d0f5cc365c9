package engine_test

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/rng"
	"dmra/internal/workload"
)

// fanoutWorkers returns the worker counts the fan-out tests compare
// against workers=1: explicit counts, so the propose and select phases
// really split at toy sizes, and 0 (auto). scripts/check.sh sets
// DMRA_TEST_PROPOSE_WORKERS to pin one width, race-enabled.
func fanoutWorkers(t *testing.T) []int {
	if v := os.Getenv("DMRA_TEST_PROPOSE_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("DMRA_TEST_PROPOSE_WORKERS must be an integer, got %q", v)
		}
		return []int{n}
	}
	return []int{1, 2, 3, 5, 16, 0}
}

// fanoutNets returns the scenarios of the fan-out tests: a spread of
// generated shapes plus the rush-hour dense city, whose rounds carry
// enough proposals to split select across many BS ranges.
func fanoutNets(t *testing.T) map[string]*mec.Network {
	t.Helper()
	nets := map[string]*mec.Network{}
	for _, seed := range []uint64{1, 7, 42, 99, 1234} {
		net, err := genScenario(seed).Build(seed)
		if err != nil {
			continue
		}
		nets["seed-"+strconv.FormatUint(seed, 10)] = net
	}
	net, err := workload.DenseCity().Build(1)
	if err != nil {
		t.Fatalf("build dense city: %v", err)
	}
	nets["densecity"] = net
	return nets
}

// arenaTrace is everything an observed Arena run exposes: the hook
// streams rendered in firing order, the final assignment, the stats and
// the scan counter.
type arenaTrace struct {
	events  []string
	serving []int32
	stats   engine.SoAStats
	scanned uint64
}

func traceArenaRun(t *testing.T, net *mec.Network, workers int) (arenaTrace, int) {
	t.Helper()
	var tr arenaTrace
	emit := func(format string, args ...any) {
		tr.events = append(tr.events, fmt.Sprintf(format, args...))
	}
	hooks := &engine.SoAHooks{
		Round:   func(r int) { emit("round %d", r) },
		Propose: func(u, bs int32) { emit("propose %d %d", u, bs) },
		Cloud:   func(u int32) { emit("cloud %d", u) },
		Verdict: func(bs int32, v engine.Verdict) { emit("verdict %d %+v", bs, v) },
		Snapshot: func(s *engine.Snapshot) {
			emit("snapshot %d %v %v %v", s.Round, s.RemCRU, s.RemRRB, s.ServingBS)
		},
		RoundDone: func(r int) { emit("done %d", r) },
	}
	var a engine.Arena
	stats, err := a.Run(net, engine.DefaultConfig(), workers, hooks)
	if err != nil {
		t.Fatalf("workers %d: run: %v", workers, err)
	}
	tr.serving = slices.Clone(a.Serving())
	tr.stats = stats
	tr.scanned = a.Scanned()
	return tr, a.WideSelects()
}

// TestArenaFanOutDeterminism pins Arena.Run at every worker count, auto
// included, to the serial run: every hook stream in order, the
// assignment, stats and scan counter must be identical.
func TestArenaFanOutDeterminism(t *testing.T) {
	workers := fanoutWorkers(t)
	wide := 0
	for name, net := range fanoutNets(t) {
		want, _ := traceArenaRun(t, net, 1)
		for _, w := range workers {
			got, n := traceArenaRun(t, net, w)
			wide += n
			if got.stats != want.stats || got.scanned != want.scanned {
				t.Fatalf("%s workers %d: stats %+v scanned %d, serial %+v scanned %d",
					name, w, got.stats, got.scanned, want.stats, want.scanned)
			}
			if !slices.Equal(got.serving, want.serving) {
				t.Fatalf("%s workers %d: assignment differs from the serial run", name, w)
			}
			if i := firstDiff(got.events, want.events); i >= 0 {
				t.Fatalf("%s workers %d: event %d of %d/%d: %q, serial %q",
					name, w, i, len(got.events), len(want.events), at(got.events, i), at(want.events, i))
			}
		}
	}
	if slices.Max(workers) > 1 && wide == 0 {
		t.Fatal("no round split select across two BS ranges; the test is vacuous")
	}
}

// settleTrace is the observable outcome of one churn script on an
// Incremental: per Settle, the delta stats, assignment and residuals.
type settleTrace struct {
	stats   []engine.DeltaStats
	serving [][]int32
	rem     [][]int
}

// runChurnScript drives inc through a deterministic churn script —
// arrival waves, departures and demand changes between Settles — and
// records every Settle's outcome.
func runChurnScript(t *testing.T, net *mec.Network, workers int, seed uint64) (settleTrace, int) {
	t.Helper()
	var inc engine.Incremental
	if err := inc.Begin(net, engine.DefaultConfig(), workers); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	src := rng.New(seed).SplitLabeled("fanout-churn")
	nUE := len(net.UEs)
	active := make([]bool, nUE)
	var tr settleTrace
	for epoch := 0; epoch < 6; epoch++ {
		for u := 0; u < nUE; u++ {
			switch {
			case !active[u] && src.Float64() < 0.5:
				if inc.ServingBS(mec.UEID(u)) < 0 {
					if err := inc.Arrive(mec.UEID(u)); err != nil {
						t.Fatalf("epoch %d: Arrive(%d): %v", epoch, u, err)
					}
					active[u] = true
				}
			case active[u] && src.Float64() < 0.2:
				inc.Depart(mec.UEID(u))
				active[u] = false
			case active[u] && src.Float64() < 0.1:
				if err := inc.SetDemand(mec.UEID(u), src.IntBetween(1, 6)); err != nil {
					t.Fatalf("epoch %d: SetDemand(%d): %v", epoch, u, err)
				}
			}
		}
		ds, err := inc.Settle()
		if err != nil {
			t.Fatalf("epoch %d: Settle: %v", epoch, err)
		}
		// Cloud-served UEs left the frontier; they re-arrive next epoch.
		for u := range active {
			if active[u] && inc.ServingBS(mec.UEID(u)) < 0 {
				active[u] = false
			}
		}
		if err := inc.CheckInvariants(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		rem := make([]int, 0, len(net.BSs)*(net.Services+1))
		for b := range net.BSs {
			for j := 0; j < net.Services; j++ {
				rem = append(rem, inc.RemCRU(b, j))
			}
			rem = append(rem, inc.RemRRB(b))
		}
		tr.stats = append(tr.stats, ds)
		tr.serving = append(tr.serving, slices.Clone(inc.Serving()))
		tr.rem = append(tr.rem, rem)
	}
	return tr, inc.WideSelects()
}

// TestArenaFanOutIncrementalSettle pins Incremental.Settle over a churn
// script at every worker count to the serial session, Settle by Settle.
func TestArenaFanOutIncrementalSettle(t *testing.T) {
	workers := fanoutWorkers(t)
	wide := 0
	for name, net := range fanoutNets(t) {
		want, _ := runChurnScript(t, net, 1, 5)
		for _, w := range workers {
			got, n := runChurnScript(t, net, w, 5)
			wide += n
			for e := range want.stats {
				if got.stats[e] != want.stats[e] {
					t.Fatalf("%s workers %d settle %d: %+v, serial %+v", name, w, e, got.stats[e], want.stats[e])
				}
				if !slices.Equal(got.serving[e], want.serving[e]) || !slices.Equal(got.rem[e], want.rem[e]) {
					t.Fatalf("%s workers %d settle %d: assignment or residuals differ from the serial session", name, w, e)
				}
			}
		}
	}
	if slices.Max(workers) > 1 && wide == 0 {
		t.Fatal("no repair round split select across two BS ranges; the test is vacuous")
	}
}

// TestArenaRunStampWrap drives reset across the uint32 run-stamp wrap:
// regions stamped by earlier runs must not be mistaken for current ones,
// so the run after the wrap must equal a fresh arena's.
func TestArenaRunStampWrap(t *testing.T) {
	net, err := workload.DenseCity().Build(1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := engine.DefaultConfig()
	var fresh engine.Arena
	want, err := fresh.Run(net, cfg, 1, nil)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	var a engine.Arena
	if _, err := a.Run(net, cfg, 1, nil); err != nil {
		t.Fatalf("first run: %v", err)
	}
	a.SetRunStamp(^uint32(0))
	got, err := a.Run(net, cfg, 1, nil)
	if err != nil {
		t.Fatalf("run after the wrap: %v", err)
	}
	if got != want || a.Scanned() != fresh.Scanned() {
		t.Fatalf("run after the wrap: %+v scanned %d, fresh arena %+v scanned %d", got, a.Scanned(), want, fresh.Scanned())
	}
	if !slices.Equal(a.Serving(), fresh.Serving()) {
		moved := 0
		for u := range a.Serving() {
			if a.Serving()[u] != fresh.Serving()[u] {
				moved++
			}
		}
		t.Fatalf("run after the wrap placed %d of %d UEs differently from a fresh arena", moved, len(a.Serving()))
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}
