package engine

import "dmra/internal/mec"

// ResidualView is the resource picture a UE proposes against: a UE's
// possibly-stale local view in the message-passing runtimes. Within a run
// a view's residuals may only shrink; that is what makes a feasibility
// drop final.
type ResidualView interface {
	Residual(b mec.BSID, j mec.ServiceID) (remCRU, remRRBs int)
}

// Proposer is the UE side of the round state machine (Alg. 1 lines 3-10)
// over UE-local views: the same scan as the arena's proposeUEScan, laid
// out for the message-passing runtimes. Each UE keeps a flat list of
// alive candidate indices in no particular order; a propose drops every
// candidate its view says can no longer fit the UE and returns the
// (preference, index) lex-min of the rest. One Proposer serves every UE
// of a run; it is not safe for concurrent use.
type Proposer struct {
	net *mec.Network
	cfg Config
	// ks[off[u]:off[u]+alive[u]] holds UE u's alive candidate indices
	// into net.Candidates(u).
	off   []int32
	alive []int32
	ks    []int32
	// scanned counts the candidates visited by Propose.
	scanned uint64
}

// NewProposer returns a proposer over net's candidate lists.
func NewProposer(net *mec.Network, cfg Config) *Proposer {
	p := &Proposer{}
	p.Reset(net, cfg)
	return p
}

// Reset rewinds the proposer for a fresh run over net, reusing backing
// storage when shapes allow.
func (p *Proposer) Reset(net *mec.Network, cfg Config) {
	p.net, p.cfg, p.scanned = net, cfg, 0
	nUE := len(net.UEs)
	p.off = grown(p.off, nUE)
	p.alive = grown(p.alive, nUE)
	p.ks = p.ks[:0]
	for u := range net.UEs {
		n := len(net.Candidates(mec.UEID(u)))
		p.off[u] = int32(len(p.ks))
		p.alive[u] = int32(n)
		for k := 0; k < n; k++ {
			p.ks = append(p.ks, int32(k))
		}
	}
}

// Propose returns UE u's request for this round and its target BS, or
// ok = false when the UE has no viable candidate left (cloud fallback).
// Every candidate whose residuals — as rv reports them — can no longer
// fit the UE is dropped permanently first; the winner is the lowest-index
// minimum of Eq. 17 over the rest, exactly what a naive first-strictly-
// less sweep in candidate order picks.
func (p *Proposer) Propose(u mec.UEID, rv ResidualView) (req Request, bs mec.BSID, ok bool) {
	ue := &p.net.UEs[u]
	cands := p.net.Candidates(u)
	ks := p.ks[p.off[u]:]
	n := p.alive[u]
	p.scanned += uint64(n)
	best := int32(-1)
	var bestV float64
	for i := int32(0); i < n; {
		k := ks[i]
		l := &cands[k]
		remCRU, remRRBs := rv.Residual(l.BS, ue.Service)
		if remCRU < ue.CRUDemand || remRRBs < l.RRBs {
			n--
			ks[i] = ks[n]
			continue
		}
		v := p.cfg.preference(l.PricePerCRU, remCRU+remRRBs)
		if best < 0 || soaLess(v, k, bestV, best) {
			best, bestV = k, v
		}
		i++
	}
	p.alive[u] = n
	if best < 0 {
		return Request{}, mec.CloudBS, false
	}
	l := &cands[best]
	return Request{
		UE:          u,
		Service:     ue.Service,
		CRUs:        ue.CRUDemand,
		RRBs:        l.RRBs,
		SameSP:      l.SameSP,
		Fu:          p.net.CoverCount(u),
		PricePerCRU: l.PricePerCRU,
	}, l.BS, true
}

// Empty reports whether UE u has no alive candidates left; such a UE can
// never propose again this run.
func (p *Proposer) Empty(u mec.UEID) bool { return p.alive[u] == 0 }

// DropBS removes UE u's candidate on BS b, if still alive — the
// receiver-side effect of a permanent reject.
func (p *Proposer) DropBS(u mec.UEID, b mec.BSID) {
	cands := p.net.Candidates(u)
	ks := p.ks[p.off[u]:]
	n := p.alive[u]
	for i := int32(0); i < n; i++ {
		if cands[ks[i]].BS == b {
			n--
			ks[i] = ks[n]
			p.alive[u] = n
			return
		}
	}
}

// Scanned returns the cumulative candidates visited by Propose.
func (p *Proposer) Scanned() uint64 { return p.scanned }
