package engine_test

import (
	"testing"

	"dmra/internal/engine"
	"dmra/internal/mec"
)

// TestViewTableBroadcast pins the view bookkeeping: initial views equal
// the deployment capacities and ApplyBroadcast updates exactly the
// receivers.
func TestViewTableBroadcast(t *testing.T) {
	wl := genScenario(5)
	wl.UEs = 40
	net, err := wl.Build(5)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tbl := engine.NewViewTable(net)

	var b mec.BSID = -1
	for bb := range net.BSs {
		if len(tbl.Covered(mec.BSID(bb))) >= 2 {
			b = mec.BSID(bb)
			break
		}
	}
	if b < 0 {
		t.Skip("scenario has no BS covering two UEs")
	}
	covered := tbl.Covered(b)
	for _, u := range covered {
		view := tbl.UE(u)
		remCRU, remRRBs := view.Residual(b, net.UEs[u].Service)
		if want := net.BSs[b].CRUCapacity[net.UEs[u].Service]; remCRU != want || remRRBs != net.BSs[b].MaxRRBs {
			t.Fatalf("UE %d initial view of BS %d: (%d, %d), want (%d, %d)",
				u, b, remCRU, remRRBs, want, net.BSs[b].MaxRRBs)
		}
	}

	// Broadcast to all covered UEs but the last: the missed receiver keeps
	// its stale view.
	updated := make([]int, net.Services)
	tbl.ApplyBroadcast(b, updated, 1, covered[:len(covered)-1])
	heard := tbl.UE(covered[0])
	if remCRU, remRRBs := heard.Residual(b, net.UEs[covered[0]].Service); remCRU != 0 || remRRBs != 1 {
		t.Errorf("receiver view: (%d, %d), want (0, 1)", remCRU, remRRBs)
	}
	missed := tbl.UE(covered[len(covered)-1])
	if _, remRRBs := missed.Residual(b, net.UEs[covered[len(covered)-1]].Service); remRRBs != net.BSs[b].MaxRRBs {
		t.Errorf("missed receiver saw the broadcast: remRRBs=%d", remRRBs)
	}
}
