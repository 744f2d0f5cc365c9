package mec

import (
	"slices"
	"testing"
)

// coverLists returns, for every BS, the ascending UEs listing it as a
// candidate in net — the expected CoverIndex of net's dense view.
func coverLists(net *Network) [][]int32 {
	lists := make([][]int32, len(net.BSs))
	for u := range net.UEs {
		for _, l := range net.Candidates(UEID(u)) {
			lists[l.BS] = append(lists[l.BS], int32(u))
		}
	}
	return lists
}

// TestSubViewDense checks a SubView's dense view across two Refresh calls
// with different active sets and a ledger drained in between: every
// active UE's window equals its view candidates field by field, inactive
// UEs have empty windows, the per-UE arrays are the parent's, the BS rows
// equal the live residuals, and CoverIndex describes the current refresh,
// never the previous one.
func TestSubViewDense(t *testing.T) {
	net := randomScenario(t, 31, 120, 8, false)
	parent := net.Dense()
	state := NewState(net)
	// grant assigns every UE of the given residue class to its first
	// servable candidate, draining low-ID BSs first.
	grant := func(mod, rem int) {
		for u := range net.UEs {
			uid := UEID(u)
			if u%mod != rem || state.Assigned(uid) {
				continue
			}
			for _, l := range net.Candidates(uid) {
				if state.CanServe(uid, l.BS) {
					if err := state.Assign(uid, l.BS); err != nil {
						t.Fatalf("assign: %v", err)
					}
					break
				}
			}
		}
	}
	sv := net.NewSubView()
	var prevCover [][]int32
	for refresh, rem := range []int{0, 1} {
		grant(4, 2+rem)
		var active []UEID
		for u := range net.UEs {
			if u%2 == rem && !state.Assigned(UEID(u)) {
				active = append(active, UEID(u))
			}
		}
		sub := sv.Refresh(active, state)
		c := sub.Dense()
		if c == nil {
			t.Fatalf("refresh %d: SubView has no dense view", refresh)
		}
		if sub.Dense() != c {
			t.Fatalf("refresh %d: a second Dense call rebuilt the view", refresh)
		}
		if c.UEs() != len(net.UEs) || c.BSs() != len(net.BSs) || c.Services != net.Services {
			t.Fatalf("refresh %d: shape %d UEs, %d BSs, %d services", refresh, c.UEs(), c.BSs(), c.Services)
		}
		if &c.Service[0] != &parent.Service[0] || &c.CRU[0] != &parent.CRU[0] || &c.Fu[0] != &parent.Fu[0] {
			t.Fatalf("refresh %d: per-UE arrays do not alias the parent's", refresh)
		}
		isActive := make([]bool, len(net.UEs))
		for _, u := range active {
			isActive[u] = true
		}
		links := 0
		for u := range net.UEs {
			uid := UEID(u)
			lo, hi := c.CandRange(uid)
			cands := sub.Candidates(uid)
			if !isActive[u] && (hi != lo || len(cands) != 0) {
				t.Fatalf("refresh %d: inactive UE %d has window [%d,%d) and %d candidates", refresh, u, lo, hi, len(cands))
			}
			if int(hi-lo) != len(cands) {
				t.Fatalf("refresh %d: UE %d window has %d links, view %d", refresh, u, hi-lo, len(cands))
			}
			for k, l := range cands {
				g := lo + int32(k)
				if c.BS[g] != int32(l.BS) || c.RRBs[g] != int32(l.RRBs) || c.Price[g] != l.PricePerCRU || c.SameSP[g] != l.SameSP {
					t.Fatalf("refresh %d: UE %d candidate %d: CSR (%d, %d, %g, %v), view %+v",
						refresh, u, k, c.BS[g], c.RRBs[g], c.Price[g], c.SameSP[g], l)
				}
			}
			links += len(cands)
		}
		if c.Links() != links {
			t.Fatalf("refresh %d: %d links, view has %d", refresh, c.Links(), links)
		}
		debited := 0
		for b := range net.BSs {
			bid := BSID(b)
			for j := 0; j < net.Services; j++ {
				if got, want := int(c.CRUCap[b*c.Services+j]), state.RemainingCRU(bid, ServiceID(j)); got != want {
					t.Fatalf("refresh %d: BS %d service %d CRU row %d, residual %d", refresh, b, j, got, want)
				}
			}
			if got, want := int(c.MaxRRB[b]), state.RemainingRRBs(bid); got != want {
				t.Fatalf("refresh %d: BS %d RRB row %d, residual %d", refresh, b, got, want)
			}
			if c.MaxRRB[b] < parent.MaxRRB[b] {
				debited++
			}
		}
		if debited == 0 {
			t.Fatalf("refresh %d: no BS debited; the rows cannot tell residuals from capacities", refresh)
		}

		want := coverLists(sub)
		if slices.EqualFunc(want, prevCover, slices.Equal[[]int32]) {
			t.Fatalf("refresh %d: active sets give the same cover index; the check is vacuous", refresh)
		}
		off, ue := c.CoverIndex()
		for b := range net.BSs {
			if got := ue[off[b]:off[b+1]]; !slices.Equal(got, want[b]) {
				t.Fatalf("refresh %d: BS %d cover list %v, want %v", refresh, b, got, want[b])
			}
		}
		prevCover = want
	}
}
