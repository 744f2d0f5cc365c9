package mec

import (
	"reflect"
	"testing"

	"dmra/internal/geo"
	"dmra/internal/radio"
	"dmra/internal/rng"
)

// randomScenario builds a scenario with n UEs and m BSs scattered over a
// 1200x900 area, exercising mixed SPs, services, and shadowing.
func randomScenario(t *testing.T, seed uint64, nUE, nBS int, shadow bool) *Network {
	t.Helper()
	src := rng.New(seed).SplitLabeled("build-test")
	area := geo.NewArea(1200, 900)
	sps := testSPs(3)
	const services = 4
	bsPts := area.RandomPoints(src, nBS)
	bss := make([]BS, nBS)
	for b := range bss {
		caps := make([]int, services)
		for j := range caps {
			caps[j] = src.Intn(120)
		}
		bss[b] = BS{ID: BSID(b), SP: SPID(src.Intn(3)), Pos: bsPts[b], CRUCapacity: caps, MaxRRBs: 40 + src.Intn(30)}
	}
	uePts := area.RandomPoints(src, nUE)
	ues := make([]UE, nUE)
	for u := range ues {
		ues[u] = UE{
			ID:        UEID(u),
			SP:        SPID(src.Intn(3)),
			Pos:       uePts[u],
			Service:   ServiceID(src.Intn(services)),
			CRUDemand: 1 + src.Intn(6),
			RateBps:   (0.5 + src.Float64()) * 1e6,
		}
	}
	rc := radio.DefaultConfig()
	if shadow {
		rc.ShadowingStdDB = 4
		rc.ShadowingSeed = seed
	}
	net, err := NewNetwork(sps, bss, ues, services, rc, testPricing())
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return net
}

// bruteLinks recomputes UE u's candidate list with the all-pairs scan the
// grid-indexed build replaced. It must match buildLinksForUE exactly.
func bruteLinks(n *Network, u int) []Link {
	ue := &n.UEs[u]
	var out []Link
	for b := range n.BSs {
		bs := &n.BSs[b]
		if !bs.Hosts(ue.Service) {
			continue
		}
		d := ue.Pos.DistanceTo(bs.Pos)
		if !n.Radio.Covers(d) {
			continue
		}
		shadow := n.Radio.ShadowDB(u, b)
		rrbs, err := n.Radio.RRBsNeededWith(d, ue.RateBps, shadow)
		if err != nil || rrbs > bs.MaxRRBs {
			continue
		}
		out = append(out, Link{
			UE:          UEID(u),
			BS:          BSID(b),
			DistanceM:   d,
			RRBs:        rrbs,
			PricePerCRU: n.PricePerCRU(ue.SP == bs.SP, d),
			SameSP:      ue.SP == bs.SP,
			SINR:        n.Radio.SINRWith(d, shadow),
			ShadowDB:    shadow,
		})
	}
	return out
}

// TestBuildLinksMatchesBruteForce pins the grid-indexed (and, at larger
// sizes, parallel) link build to the all-pairs reference, field by field.
func TestBuildLinksMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name     string
		seed     uint64
		nUE, nBS int
		shadow   bool
	}{
		{"tiny", 1, 3, 2, false},
		{"small", 2, 40, 9, false},
		{"shadowed", 3, 60, 12, true},
		{"parallel", 4, 700, 30, true}, // 700*30 > parallelBuildThreshold
		{"no-ues", 5, 0, 8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := randomScenario(t, tc.seed, tc.nUE, tc.nBS, tc.shadow)
			anyCovered := false
			for u := range net.UEs {
				want := bruteLinks(net, u)
				got := net.Candidates(UEID(u))
				if len(got) != len(want) {
					t.Fatalf("UE %d: %d candidates, brute force found %d", u, len(got), len(want))
				}
				for k := range want {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Fatalf("UE %d candidate %d differs:\n got %+v\nwant %+v", u, k, got[k], want[k])
					}
				}
				if net.CoverCount(UEID(u)) != len(want) {
					t.Fatalf("UE %d: CoverCount %d, want %d", u, net.CoverCount(UEID(u)), len(want))
				}
				anyCovered = anyCovered || len(want) > 0
			}
			if tc.nUE >= 40 && !anyCovered {
				t.Fatal("scenario degenerate: no UE has any candidate")
			}
		})
	}
}

// TestLinkBinarySearchMatchesScan checks Link against a linear scan for
// every (UE, BS) pair, hits and misses alike.
func TestLinkBinarySearchMatchesScan(t *testing.T) {
	net := randomScenario(t, 11, 80, 14, true)
	for u := range net.UEs {
		for b := range net.BSs {
			var want Link
			found := false
			for _, l := range net.Candidates(UEID(u)) {
				if l.BS == BSID(b) {
					want, found = l, true
					break
				}
			}
			got, ok := net.Link(UEID(u), BSID(b))
			if ok != found || got != want {
				t.Fatalf("Link(%d,%d) = %+v,%v; scan = %+v,%v", u, b, got, ok, want, found)
			}
		}
	}
}

// TestStateResetReuse checks that Reset over the same network rewinds the
// ledger without reallocating.
func TestStateResetReuse(t *testing.T) {
	net := randomScenario(t, 21, 50, 8, false)
	s := NewState(net)
	var u UEID
	var b BSID
	found := false
	for uu := range net.UEs {
		if cs := net.Candidates(UEID(uu)); len(cs) > 0 {
			u, b, found = UEID(uu), cs[0].BS, true
			break
		}
	}
	if !found {
		t.Fatal("no candidate links in scenario")
	}
	if err := s.Assign(u, b); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	cru, rrb := s.Residual(b, net.UEs[u].Service)
	if cru != s.RemainingCRU(b, net.UEs[u].Service) || rrb != s.RemainingRRBs(b) {
		t.Fatal("Residual disagrees with RemainingCRU/RemainingRRBs")
	}
	s.Unassign(u)

	s.Reset(net)
	fresh := NewState(net)
	for bb := range net.BSs {
		for j := 0; j < net.Services; j++ {
			if s.RemainingCRU(BSID(bb), ServiceID(j)) != fresh.RemainingCRU(BSID(bb), ServiceID(j)) {
				t.Fatalf("BS %d service %d: reset CRU ledger differs from fresh", bb, j)
			}
		}
		if s.RemainingRRBs(BSID(bb)) != fresh.RemainingRRBs(BSID(bb)) {
			t.Fatalf("BS %d: reset RRB ledger differs from fresh", bb)
		}
	}
	for uu := range net.UEs {
		if s.Assigned(UEID(uu)) {
			t.Fatalf("UE %d still assigned after Reset", uu)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after Reset: %v", err)
	}
}
