package engine_test

import (
	"strings"
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
)

// buildIncNet builds a small deterministic scenario with a dense view.
func buildIncNet(t *testing.T, seed uint64) *mec.Network {
	t.Helper()
	wl := genScenario(seed)
	wl.UEs = 80
	net, err := wl.Build(seed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if net.Dense() == nil {
		t.Fatal("NewNetwork-built scenario has no dense view")
	}
	return net
}

// TestIncrementalLifecycle exercises the basic contract: an empty
// session settles to nothing; arrivals admit and match a one-shot run;
// departures credit the ledger back to full capacity.
func TestIncrementalLifecycle(t *testing.T) {
	net := buildIncNet(t, 3)
	cfg := engine.DefaultConfig()

	var inc engine.Incremental
	if err := inc.Begin(net, cfg, 1); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	ds, err := inc.Settle()
	if err != nil {
		t.Fatalf("empty Settle: %v", err)
	}
	if ds.Frontier != 0 || ds.Rounds != 0 || inc.AssignedCount() != 0 {
		t.Fatalf("empty session settled to %+v, %d assigned", ds, inc.AssignedCount())
	}

	for u := range net.UEs {
		if err := inc.Arrive(mec.UEID(u)); err != nil {
			t.Fatalf("Arrive(%d): %v", u, err)
		}
	}
	if ds, err = inc.Settle(); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	if ds.Accepts == 0 || inc.AssignedCount() != ds.Accepts-ds.Released {
		// Released is 0 here; Accepts counts admissions, each UE admitted
		// at most once per Settle since re-proposals only follow rejects.
		t.Fatalf("full-population settle: %+v, %d assigned", ds, inc.AssignedCount())
	}

	// An assigned UE cannot re-arrive; its departure must free it.
	var served mec.UEID = -1
	for u := range net.UEs {
		if inc.ServingBS(mec.UEID(u)) >= 0 {
			served = mec.UEID(u)
			break
		}
	}
	if served < 0 {
		t.Fatal("nothing admitted; lifecycle test is vacuous")
	}
	if err := inc.Arrive(served); err == nil {
		t.Fatal("Arrive on an assigned UE succeeded")
	}

	for u := range net.UEs {
		inc.Depart(mec.UEID(u))
	}
	if inc.AssignedCount() != 0 {
		t.Fatalf("%d UEs still assigned after full departure", inc.AssignedCount())
	}
	csr := net.Dense()
	for b := 0; b < csr.BSs(); b++ {
		for j := 0; j < csr.Services; j++ {
			if got, want := inc.RemCRU(b, j), int(csr.CRUCap[b*csr.Services+j]); got != want {
				t.Fatalf("BS %d service %d: residual %d after drain, capacity %d", b, j, got, want)
			}
		}
		if got, want := inc.RemRRB(b), int(csr.MaxRRB[b]); got != want {
			t.Fatalf("BS %d: residual RRBs %d after drain, capacity %d", b, got, want)
		}
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
}

// TestIncrementalSetDemand pins the demand-change sequencing: releasing
// before mutating (so the credit matches the admit), re-pending the UE,
// and serving it under the new demand at the next Settle.
func TestIncrementalSetDemand(t *testing.T) {
	net := buildIncNet(t, 5)
	var inc engine.Incremental
	if err := inc.Begin(net, engine.DefaultConfig(), 2); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for u := range net.UEs {
		if err := inc.Arrive(mec.UEID(u)); err != nil {
			t.Fatalf("Arrive: %v", err)
		}
	}
	if _, err := inc.Settle(); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	var served mec.UEID = -1
	for u := range net.UEs {
		if inc.ServingBS(mec.UEID(u)) >= 0 {
			served = mec.UEID(u)
			break
		}
	}
	if served < 0 {
		t.Skip("scenario admitted nothing")
	}
	old := inc.Demand(served)
	if err := inc.SetDemand(served, old+1); err != nil {
		t.Fatalf("SetDemand: %v", err)
	}
	if inc.ServingBS(served) >= 0 {
		t.Fatal("demand change left the UE assigned without re-competing")
	}
	if inc.Demand(served) != old+1 {
		t.Fatalf("demand %d after SetDemand(%d)", inc.Demand(served), old+1)
	}
	ds, err := inc.Settle()
	if err != nil {
		t.Fatalf("re-settle: %v", err)
	}
	if ds.Frontier != 1 {
		t.Fatalf("re-settle frontier %d, want exactly the re-pended UE", ds.Frontier)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if err := inc.SetDemand(served, -1); err == nil {
		t.Fatal("negative demand accepted")
	}
}

// TestIncrementalBeginRejects pins the mode's one precondition: a dense
// candidate view, which a Network not built by NewNetwork lacks.
func TestIncrementalBeginRejects(t *testing.T) {
	var inc engine.Incremental
	if err := inc.Begin(&mec.Network{}, engine.DefaultConfig(), 1); err == nil || !strings.Contains(err.Error(), "dense") {
		t.Fatalf("dense-less network accepted: %v", err)
	}
}

// TestIncrementalNegativeRho pins the delta engine at rho < 0, where a
// spare-capacity term rewards crowded BSs: settling the whole population
// must reproduce a from-scratch arena run — assignment, residuals and
// round counters.
func TestIncrementalNegativeRho(t *testing.T) {
	accepts := 0
	for _, seed := range []uint64{3, 5, 11, 12} {
		net := buildIncNet(t, seed)
		for _, rho := range []float64{-400, -4} {
			cfg := engine.DefaultConfig()
			cfg.Rho = rho
			var arena engine.Arena
			want, err := arena.Run(net, cfg, 1, nil)
			if err != nil {
				t.Fatalf("seed %d rho %g: arena run: %v", seed, rho, err)
			}
			var inc engine.Incremental
			if err := inc.Begin(net, cfg, 2); err != nil {
				t.Fatalf("seed %d rho %g: Begin: %v", seed, rho, err)
			}
			for u := range net.UEs {
				if err := inc.Arrive(mec.UEID(u)); err != nil {
					t.Fatalf("seed %d rho %g: Arrive(%d): %v", seed, rho, u, err)
				}
			}
			ds, err := inc.Settle()
			if err != nil {
				t.Fatalf("seed %d rho %g: Settle: %v", seed, rho, err)
			}
			got := engine.SoAStats{Rounds: ds.Rounds, Proposals: ds.Proposals, Accepts: ds.Accepts, Rejects: ds.Rejects}
			// A from-scratch run counts one closing empty round even when
			// no UE can propose at all; Settle skips an empty frontier.
			if got != want && !(want.Proposals == 0 && ds.Frontier == 0) {
				t.Fatalf("seed %d rho %g: settle stats %+v, from-scratch %+v", seed, rho, got, want)
			}
			if !equalInt32(inc.Serving(), arena.Serving()) {
				t.Fatalf("seed %d rho %g: settled assignment differs from the from-scratch run", seed, rho)
			}
			for b := 0; b < arena.BSs(); b++ {
				if inc.RemRRB(b) != arena.RemRRB(b) {
					t.Fatalf("seed %d rho %g: BS %d residual RRBs %d, from-scratch %d", seed, rho, b, inc.RemRRB(b), arena.RemRRB(b))
				}
			}
			if err := inc.CheckInvariants(); err != nil {
				t.Fatalf("seed %d rho %g: invariants: %v", seed, rho, err)
			}
			accepts += want.Accepts
		}
	}
	if accepts == 0 {
		t.Fatal("no scenario admitted anything; the test is vacuous")
	}
}

// TestArenaLazyResetReuse pins satellite 1's correctness face: a reused
// Arena (stamp-invalidated regions, no O(links) zeroing) must produce
// the same assignment and stats run after run, including after runs of
// a *different* scenario interleave on the same arena.
func TestArenaLazyResetReuse(t *testing.T) {
	netA := buildIncNet(t, 11)
	netB := buildIncNet(t, 12)
	cfg := engine.DefaultConfig()
	var arena engine.Arena

	runOn := func(net *mec.Network) (engine.SoAStats, []int32) {
		stats, err := arena.Run(net, cfg, 2, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		serving := make([]int32, len(arena.Serving()))
		copy(serving, arena.Serving())
		return stats, serving
	}
	statsA, servingA := runOn(netA)
	statsB, servingB := runOn(netB)
	for i := 0; i < 3; i++ {
		if s, v := runOn(netA); s != statsA || !equalInt32(v, servingA) {
			t.Fatalf("rerun %d on A diverged: %+v vs %+v", i, s, statsA)
		}
		if s, v := runOn(netB); s != statsB || !equalInt32(v, servingB) {
			t.Fatalf("rerun %d on B diverged: %+v vs %+v", i, s, statsB)
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
