package mec

import "sync/atomic"

// networkBuilds counts NewNetwork calls process-wide. The online session
// asserts it stays flat after setup: epochs must reuse a SubView instead
// of rebuilding (and re-validating, and re-link-building) a Network.
var networkBuilds atomic.Int64

// NetworkBuilds returns the number of NewNetwork calls so far in this
// process. Test-oriented: take a delta around the code under test.
func NetworkBuilds() int64 { return networkBuilds.Load() }

// SubView is a reusable restriction of a Network to an active UE subset
// with live residual capacities. It exists for the online session, which
// re-matches a changing waiting set against shrinking resources every
// epoch: rebuilding a Network per epoch costs validation plus a full
// radio/pricing link build, while Refresh only swaps link-slice aliases
// and copies residual counters into preallocated buffers.
//
// The materialized view shares the parent's SPs, UEs, radio, pricing,
// links (aliased per active UE), and coverage counts. Sharing coverCount
// is load-bearing, not just cheap: f_u in Alg. 1's tie-breaks is the
// UE's true coverage, which must not shrink because a covering BS is
// momentarily drained. For the same reason a BS with zero residual RRBs
// stays present with MaxRRBs = 0 — candidates keep seeing it and it
// rejects normally — which NewNetwork's validation would forbid; the
// SubView bypasses validation because the parent already validated the
// scenario and residuals are invariant-checked by the ledger.
//
// The view's Network has a dense CSR like its parent, built by the first
// Dense call after each Refresh: the per-UE arrays alias the parent's
// CSR, the per-candidate arrays hold copies of the active UEs' windows
// (inactive UEs get empty ones), and the BS rows are the refreshed
// residuals.
type SubView struct {
	parent *Network
	net    Network
	bss    []BS
	caps   [][]int
	links  [][]Link
	// csr is the dense view, current only while stale is false.
	csr   *CSR
	stale bool
}

// NewSubView prepares a reusable sub-view of n. The returned SubView is
// not safe for concurrent Refresh calls, and the *Network handed out by
// Refresh is invalidated by the next Refresh.
func (n *Network) NewSubView() *SubView {
	sv := &SubView{
		parent: n,
		bss:    make([]BS, len(n.BSs)),
		caps:   make([][]int, len(n.BSs)),
		links:  make([][]Link, len(n.UEs)),
	}
	for b := range n.BSs {
		sv.bss[b] = n.BSs[b]
		sv.caps[b] = make([]int, len(n.BSs[b].CRUCapacity))
		sv.bss[b].CRUCapacity = sv.caps[b]
	}
	sv.net = Network{
		SPs:        n.SPs,
		BSs:        sv.bss,
		UEs:        n.UEs,
		Services:   n.Services,
		Radio:      n.Radio,
		Pricing:    n.Pricing,
		links:      sv.links,
		coverCount: n.coverCount,
		dense:      csrState{sub: sv},
	}
	return sv
}

// Refresh points the view at the given active UEs and snapshots res's
// residual capacities as the BS capacities, then returns the view's
// Network. Inactive UEs keep their identity but expose no candidate
// links, so allocators pass them straight to the cloud and the caller
// can index the resulting assignment by real UE ID with no renumbering.
// res must be a ledger over the parent network.
func (sv *SubView) Refresh(active []UEID, res *State) *Network {
	for b := range sv.bss {
		caps := sv.caps[b]
		for j := range caps {
			caps[j] = res.RemainingCRU(BSID(b), ServiceID(j))
		}
		sv.bss[b].MaxRRBs = res.RemainingRRBs(BSID(b))
	}
	for u := range sv.links {
		sv.links[u] = nil
	}
	for _, u := range active {
		sv.links[u] = sv.parent.links[u]
	}
	sv.stale = true
	return &sv.net
}

// dense returns the view's CSR, rebuilding it in place after a Refresh.
// It reuses the previous build's arrays, so a session's steady state
// allocates nothing here; the fresh CSR value also drops the previous
// refresh's CoverIndex.
func (sv *SubView) dense() *CSR {
	if !sv.stale {
		return sv.csr
	}
	sv.stale = false
	p := sv.parent.Dense()
	if p == nil {
		sv.csr = nil
		return nil
	}
	if sv.csr == nil {
		sv.csr = new(CSR)
	}
	c := sv.csr
	nUE, total := len(sv.links), 0
	for _, ls := range sv.links {
		total += len(ls)
	}
	*c = CSR{
		Off:      resized(c.Off, nUE+1),
		BS:       resized(c.BS, total),
		RRBs:     resized(c.RRBs, total),
		Price:    resized(c.Price, total),
		SameSP:   resized(c.SameSP, total),
		Service:  p.Service,
		CRU:      p.CRU,
		Fu:       p.Fu,
		CRUCap:   resized(c.CRUCap, len(p.CRUCap)),
		MaxRRB:   resized(c.MaxRRB, len(p.MaxRRB)),
		Services: p.Services,
	}
	pos := int32(0)
	for u, ls := range sv.links {
		c.Off[u] = pos
		if len(ls) == 0 {
			continue
		}
		lo, hi := p.Off[u], p.Off[u+1]
		copy(c.BS[pos:], p.BS[lo:hi])
		copy(c.RRBs[pos:], p.RRBs[lo:hi])
		copy(c.Price[pos:], p.Price[lo:hi])
		copy(c.SameSP[pos:], p.SameSP[lo:hi])
		pos += hi - lo
	}
	c.Off[nUE] = pos
	for b := range sv.bss {
		for j, cap := range sv.caps[b] {
			c.CRUCap[b*c.Services+j] = int32(cap)
		}
		c.MaxRRB[b] = int32(sv.bss[b].MaxRRBs)
	}
	return c
}

// resized returns s with length n, reusing its capacity when it
// suffices. Contents are unspecified; callers overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
