package engine

import "dmra/internal/mec"

// bsView is a UE's broadcast-derived knowledge of one candidate BS.
type bsView struct {
	remCRU []int
	remRRB int
}

// ViewTable holds the UE-local resource views of a message-passing run.
// Initial views come from the deployment-time capacity announcement
// (Alg. 1 assumes B_u and capacities known); afterwards a UE learns only
// through the ResourceBroadcast messages of Alg. 1 line 26, applied via
// ApplyBroadcast.
type ViewTable struct {
	// views[u][b] mirrors candidate BS b's resources as last broadcast.
	views []map[mec.BSID]*bsView
	// covered[b] lists the UEs that can hear BS b's broadcasts.
	covered [][]mec.UEID
}

// NewViewTable builds the initial views over net's candidate lists.
func NewViewTable(net *mec.Network) *ViewTable {
	t := &ViewTable{
		views:   make([]map[mec.BSID]*bsView, len(net.UEs)),
		covered: make([][]mec.UEID, len(net.BSs)),
	}
	for u := range net.UEs {
		uid := mec.UEID(u)
		cands := net.Candidates(uid)
		m := make(map[mec.BSID]*bsView, len(cands))
		for _, l := range cands {
			bs := &net.BSs[l.BS]
			v := &bsView{remCRU: make([]int, len(bs.CRUCapacity)), remRRB: bs.MaxRRBs}
			copy(v.remCRU, bs.CRUCapacity)
			m[l.BS] = v
			t.covered[l.BS] = append(t.covered[l.BS], uid)
		}
		t.views[u] = m
	}
	return t
}

// Covered returns the UEs in BS b's broadcast range. The slice is owned
// by the table and must not be modified.
func (t *ViewTable) Covered(b mec.BSID) []mec.UEID { return t.covered[b] }

// ApplyBroadcast updates the receivers' views of BS b to the broadcast
// resources. Receivers is the subset of Covered(b) whose reception
// succeeded; a UE that missed it keeps its older, larger view until a
// later broadcast reaches it.
func (t *ViewTable) ApplyBroadcast(b mec.BSID, remCRU []int, remRRBs int, receivers []mec.UEID) {
	for _, u := range receivers {
		if v, ok := t.views[u][b]; ok {
			copy(v.remCRU, remCRU)
			v.remRRB = remRRBs
		}
	}
}

// UE returns UE u's ResidualView over the table. Store the value and pass
// its address where a ResidualView is needed; the pointer conversion does
// not allocate.
func (t *ViewTable) UE(u mec.UEID) UEView { return UEView{t: t, u: u} }

// UEView adapts one UE's slice of a ViewTable to the ResidualView the
// Proposer scores against.
type UEView struct {
	t *ViewTable
	u mec.UEID
}

// Residual implements ResidualView over the UE's local views.
func (v *UEView) Residual(b mec.BSID, j mec.ServiceID) (remCRU, remRRBs int) {
	bv := v.t.views[v.u][b]
	return bv.remCRU[j], bv.remRRB
}
