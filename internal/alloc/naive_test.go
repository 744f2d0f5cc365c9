package alloc

// The naive reference DMRA. It lives in a test file: nothing but the
// differential tests runs it, through DMRA.ForceNaive (export_test.go).

import (
	"fmt"
	"math"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
)

// stateLedger adapts one BS's slice of the shared mec.State to the
// engine.Ledger the naive reference's select phase admits against.
type stateLedger struct {
	state *mec.State
	bs    mec.BSID
}

// Residual implements engine.Ledger.
func (l *stateLedger) Residual(j mec.ServiceID) (remCRU, remRRBs int) {
	return l.state.Residual(l.bs, j)
}

// Admit implements engine.Ledger by granting through the shared state,
// which enforces the capacity constraints once more. The engine only
// admits after a Residual feasibility check, so a failure here is a real
// bug, not a trim.
func (l *stateLedger) Admit(r engine.Request) error {
	return l.state.Assign(r.UE, l.bs)
}

// applyVerdicts folds one BS's round verdicts into the run statistics and
// the observability stream. The synchronous solver does not distinguish
// permanent from trim rejects in its event stream: every rejected request
// retries next iteration, where the propose-time feasibility check makes
// exactly that distinction one round later (mirroring the message-passing
// runtimes' permanent/trim split).
func (d *DMRA) applyVerdicts(b mec.BSID, verdicts []engine.Verdict, stats *Stats) {
	for _, v := range verdicts {
		if v.Accepted {
			stats.Accepts++
			if d.obs != nil {
				d.obs.Event(obs.KindAccept, stats.Iterations, int(v.Req.UE), int(b))
			}
		} else {
			stats.Rejects++
			if d.obs != nil {
				d.obs.Event(obs.KindRejectTrim, stats.Iterations, int(v.Req.UE), int(b))
			}
		}
	}
}

// allocateNaive is the reference Alg. 1 implementation: a full Eq. 17
// sweep per proposal over a shrinking candidate set, against a mec.State
// ledger, with fresh buffers every round and one recorder call per
// event. The differential tests and fuzz targets pin the arena engine
// (and through it the message-passing runtimes) to it bit for bit. Both
// share the engine's select phase: the split is about how proposals are
// made, which is the part the arena lays out for speed.
func (d *DMRA) allocateNaive(net *mec.Network, res *Result) error {
	state := mec.NewState(net)
	cands := newCandidateSet(net)
	var stats Stats
	var sel engine.SelectScratch
	led := stateLedger{state: state}

	// inbox[b] collects the service requests BS b received this iteration.
	inbox := make([][]engine.Request, len(net.BSs))

	var snap *engine.Snapshot
	if d.hook != nil {
		snap = engine.NewSnapshot(net)
	}
	maxRounds := engine.RoundBound(net)
	for {
		stats.Iterations++
		if d.obs != nil {
			d.obs.Event(obs.KindRound, stats.Iterations, -1, -1)
		}

		// --- Propose phase (Alg. 1 lines 3-10) ---
		anyRequest := false
		for u := range net.UEs {
			uid := mec.UEID(u)
			if state.Assigned(uid) {
				continue
			}
			proposed := false
			for !cands.empty(uid) {
				pos, link, ok := d.bestCandidate(state, cands, uid)
				if !ok {
					break
				}
				if state.CanServe(uid, link.BS) {
					ue := &net.UEs[uid]
					inbox[link.BS] = append(inbox[link.BS], engine.Request{
						UE:      uid,
						Service: ue.Service,
						CRUs:    ue.CRUDemand,
						RRBs:    link.RRBs,
						SameSP:  link.SameSP,
						Fu:      net.CoverCount(uid),
					})
					stats.Proposals++
					anyRequest = true
					proposed = true
					if d.obs != nil {
						d.obs.Event(obs.KindPropose, stats.Iterations, u, int(link.BS))
					}
					break
				}
				cands.dropIdx(uid, pos)
			}
			if !proposed && d.obs != nil {
				d.obs.Event(obs.KindCloudFallback, stats.Iterations, u, int(mec.CloudBS))
			}
		}
		if !anyRequest {
			if d.hook != nil {
				snap.CaptureState(state, stats.Iterations)
				d.hook(snap)
			}
			break
		}

		// --- Select phase (Alg. 1 lines 11-26) ---
		for b := range net.BSs {
			reqs := inbox[b]
			if len(reqs) == 0 {
				continue
			}
			inbox[b] = nil
			led.bs = mec.BSID(b)
			verdicts, err := d.cfg.SelectRound(&led, reqs, &sel)
			if err != nil {
				return fmt.Errorf("alloc: DMRA admit: %w", err)
			}
			d.applyVerdicts(mec.BSID(b), verdicts, &stats)
		}
		if d.hook != nil {
			snap.CaptureState(state, stats.Iterations)
			d.hook(snap)
		}
		if d.obs != nil {
			d.observeRound(net, state)
		}

		if stats.Iterations > maxRounds {
			return fmt.Errorf("alloc: DMRA exceeded %d iterations", maxRounds)
		}
	}

	if err := state.CheckInvariants(); err != nil {
		return fmt.Errorf("alloc: DMRA produced invalid state: %w", err)
	}
	res.Assignment = state.SnapshotInto(res.Assignment)
	res.Stats = stats
	return nil
}

// bestCandidate returns the position and link of u's minimum-v candidate.
func (d *DMRA) bestCandidate(s *mec.State, cands *candidateSet, u mec.UEID) (int, mec.Link, bool) {
	bestPos := -1
	var bestLink mec.Link
	bestV := math.Inf(1)
	cands.forEach(s.Network(), u, func(pos int, l mec.Link) {
		if v := d.Preference(s, l); v < bestV {
			bestV, bestPos, bestLink = v, pos, l
		}
	})
	if bestPos < 0 {
		return 0, mec.Link{}, false
	}
	return bestPos, bestLink, true
}

// observeRound publishes the per-round gauges: residual capacity per BS
// (CRUs summed over services, RRBs) and the unmatched-UE count. Called
// once per select phase, only when an observer is attached.
func (d *DMRA) observeRound(net *mec.Network, state *mec.State) {
	for b := range net.BSs {
		crus := 0
		for j := 0; j < net.Services; j++ {
			crus += state.RemainingCRU(mec.BSID(b), mec.ServiceID(j))
		}
		d.obs.Residual(b, crus, state.RemainingRRBs(mec.BSID(b)))
	}
	unmatched := 0
	for u := range net.UEs {
		if !state.Assigned(mec.UEID(u)) {
			unmatched++
		}
	}
	d.obs.Unmatched(unmatched)
}
