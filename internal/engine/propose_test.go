package engine_test

import (
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/rng"
)

// naiveBest is the reference sweep the Proposer must reproduce: first
// strictly-smaller preference over the non-dropped candidates in index
// order.
func naiveBest(cfg engine.Config, net *mec.Network, u mec.UEID, rv engine.ResidualView, dropped []bool) (int, bool) {
	best := -1
	bestV := 0.0
	for k, l := range net.Candidates(u) {
		if dropped[k] {
			continue
		}
		remC, remR := rv.Residual(l.BS, net.UEs[u].Service)
		if v := cfg.Preference(l, remC, remR); best < 0 || v < bestV {
			best, bestV = k, v
		}
	}
	return best, best >= 0
}

// TestProposerMatchesNaiveSweep drives a proposer through a random
// interleaving of BS debits announced by lossy broadcasts, permanent
// rejects (DropBS) and proposes, checking every answer against the
// reference: drop each candidate the UE's view says can no longer fit,
// then the naive sweep over the rest.
func TestProposerMatchesNaiveSweep(t *testing.T) {
	// proposed and the view-infeasible drops by cause guard against a
	// vacuous sweep.
	proposed, cruDrops, rrbDrops := 0, 0, 0
	for _, rho := range []float64{250, 0, -40} {
		cfg := engine.DefaultConfig()
		cfg.Rho = rho
		for seed := uint64(0); seed < 6; seed++ {
			wl := genScenario(seed)
			wl.UEs = 60
			net, err := wl.Build(seed)
			if err != nil {
				t.Fatalf("rho %g seed %d: build: %v", rho, seed, err)
			}
			// cru/rrb are each BS's announced residuals: they start at
			// capacity and only shrink, like a BS ledger during a run.
			cru := make([][]int, len(net.BSs))
			rrb := make([]int, len(net.BSs))
			for b := range net.BSs {
				cru[b] = append([]int(nil), net.BSs[b].CRUCapacity...)
				rrb[b] = net.BSs[b].MaxRRBs
			}
			views := engine.NewViewTable(net)
			p := engine.NewProposer(net, cfg)
			dropped := make([][]bool, len(net.UEs))
			for u := range dropped {
				dropped[u] = make([]bool, len(net.Candidates(mec.UEID(u))))
			}
			var wantScanned uint64
			src := rng.New(seed).SplitLabeled("proposer-test")
			// The mutation mix matches what a DMRA run can do: debits
			// (never credits) reach the views only through broadcasts, and
			// each reception may be lost, so views are stale but shrink
			// monotonically — the property that makes a drop final. CRU
			// and RRB debits are drawn separately so both feasibility
			// tests drop candidates.
			for step := 0; step < 400; step++ {
				u := mec.UEID(src.Intn(len(net.UEs)))
				cands := net.Candidates(u)
				switch src.Intn(3) {
				case 0: // permanent reject of a random candidate
					if len(cands) > 0 {
						k := src.Intn(len(cands))
						dropped[u][k] = true
						p.DropBS(u, cands[k].BS)
					}
				case 1: // a debit at one BS, then its lossy broadcast
					b := src.Intn(len(net.BSs))
					if src.Intn(2) == 0 {
						j := src.Intn(net.Services)
						cru[b][j] = max(0, cru[b][j]-src.Intn(cru[b][j]/2+8))
					} else {
						rrb[b] = max(0, rrb[b]-src.Intn(rrb[b]/2+8))
					}
					var heard []mec.UEID
					for _, v := range views.Covered(mec.BSID(b)) {
						if src.Intn(2) == 0 {
							heard = append(heard, v)
						}
					}
					views.ApplyBroadcast(mec.BSID(b), cru[b], rrb[b], heard)
				default: // propose
					view := views.UE(u)
					ue := &net.UEs[u]
					for k, l := range cands {
						if dropped[u][k] {
							continue
						}
						wantScanned++
						remC, remR := view.Residual(l.BS, ue.Service)
						if remC < ue.CRUDemand {
							cruDrops++
						} else if remR < l.RRBs {
							rrbDrops++
						} else {
							continue
						}
						dropped[u][k] = true
					}
					wantK, wantOK := naiveBest(cfg, net, u, &view, dropped[u])
					req, bs, ok := p.Propose(u, &view)
					if ok != wantOK {
						t.Fatalf("rho %g seed %d step %d UE %d: ok=%v, naive ok=%v", rho, seed, step, u, ok, wantOK)
					}
					if !ok {
						if bs != mec.CloudBS {
							t.Fatalf("rho %g seed %d step %d UE %d: cloud fallback names BS %d", rho, seed, step, u, bs)
						}
						continue
					}
					proposed++
					l := cands[wantK]
					want := engine.Request{UE: u, Service: ue.Service, CRUs: ue.CRUDemand, RRBs: l.RRBs,
						SameSP: l.SameSP, Fu: net.CoverCount(u), PricePerCRU: l.PricePerCRU}
					if bs != l.BS || req != want {
						t.Fatalf("rho %g seed %d step %d UE %d: Propose -> BS %d %+v, naive -> BS %d %+v",
							rho, seed, step, u, bs, req, l.BS, want)
					}
				}
				alive := false
				for _, d := range dropped[u] {
					alive = alive || !d
				}
				if p.Empty(u) == alive {
					t.Fatalf("rho %g seed %d step %d UE %d: Empty=%v, reference alive=%v", rho, seed, step, u, p.Empty(u), alive)
				}
			}
			if p.Scanned() != wantScanned {
				t.Fatalf("rho %g seed %d: scanned %d candidates, reference %d", rho, seed, p.Scanned(), wantScanned)
			}
		}
	}
	if proposed == 0 || cruDrops == 0 || rrbDrops == 0 {
		t.Fatalf("vacuous sweep: %d proposals, %d CRU and %d RRB drops", proposed, cruDrops, rrbDrops)
	}
	t.Logf("%d proposals, %d CRU and %d RRB drops", proposed, cruDrops, rrbDrops)
}

// TestProposerEmptyAndDropBS covers the bookkeeping edges: DropBS on a
// non-candidate BS is a no-op, repeated drops are idempotent, and Empty
// flips exactly when the last candidate goes.
func TestProposerEmptyAndDropBS(t *testing.T) {
	wl := genScenario(3)
	wl.UEs = 20
	net, err := wl.Build(3)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p := engine.NewProposer(net, engine.DefaultConfig())
	for u := range net.UEs {
		uid := mec.UEID(u)
		cands := net.Candidates(uid)
		if p.Empty(uid) != (len(cands) == 0) {
			t.Fatalf("UE %d: Empty=%v with %d candidates", u, p.Empty(uid), len(cands))
		}
		p.DropBS(uid, mec.BSID(len(net.BSs)+5)) // never a candidate
		for i, l := range cands {
			p.DropBS(uid, l.BS)
			p.DropBS(uid, l.BS) // idempotent
			if last := i == len(cands)-1; p.Empty(uid) != last {
				t.Fatalf("UE %d: Empty=%v after dropping %d of %d candidates", u, p.Empty(uid), i+1, len(cands))
			}
		}
	}
}
