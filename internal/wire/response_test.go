package wire

import (
	"errors"
	"testing"
	"time"

	"dmra/internal/alloc"
	"dmra/internal/mec"
)

// unsentUE returns the lowest UE ID the request's batch does not carry.
func unsentUE(req *RoundRequest) mec.UEID {
	u := mec.UEID(0)
	for _, r := range req.Requests {
		if r.UE != u {
			break
		}
		u++
	}
	return u
}

// malformedResponses are the ways a BS can answer a round with a frame
// that does not fit the request: verdicts for UEs it was never sent
// (out of the UE table's range, or real UEs that proposed elsewhere), a
// resource broadcast of the wrong width or with negative residuals, and
// an answer to another round. Each tamper applies only to round batches,
// so the recovery probe (an empty exchange) still succeeds.
var malformedResponses = []struct {
	name   string
	tamper func(req *RoundRequest, resp *RoundResponse)
}{
	{"verdict-ue-out-of-range", func(_ *RoundRequest, resp *RoundResponse) {
		resp.Verdicts = append(resp.Verdicts, Verdict{UE: 1 << 30, Accepted: true})
	}},
	{"verdict-ue-negative", func(_ *RoundRequest, resp *RoundResponse) {
		resp.Verdicts = append(resp.Verdicts, Verdict{UE: -1, Accepted: true})
	}},
	{"verdict-ue-not-sent", func(req *RoundRequest, resp *RoundResponse) {
		resp.Verdicts = append(resp.Verdicts, Verdict{UE: unsentUE(req), Accepted: true})
	}},
	{"broadcast-short", func(_ *RoundRequest, resp *RoundResponse) {
		resp.RemainingCRU = resp.RemainingCRU[:len(resp.RemainingCRU)-1]
	}},
	{"broadcast-long", func(_ *RoundRequest, resp *RoundResponse) {
		resp.RemainingCRU = append(resp.RemainingCRU, 7)
	}},
	{"broadcast-negative-cru", func(_ *RoundRequest, resp *RoundResponse) {
		resp.RemainingCRU[0] = -1
	}},
	{"broadcast-negative-rrbs", func(_ *RoundRequest, resp *RoundResponse) {
		resp.RemainingRRBs = -1
	}},
	{"wrong-round", func(_ *RoundRequest, resp *RoundResponse) {
		resp.Round++
	}},
}

// setTamper makes every BS server of the next run answer its round
// batches through tamper.
func setTamper(t *testing.T, tamper func(*RoundRequest, *RoundResponse)) {
	setStartHook(t, func(s *BSServer) {
		s.tamper = func(req *RoundRequest, resp *RoundResponse) {
			if len(req.Requests) > 0 {
				tamper(req, resp)
			}
		}
	})
}

// wantExchangeError requires err to be a round-1 exchange *BSError.
func wantExchangeError(t *testing.T, err error) {
	t.Helper()
	var bse *BSError
	if !errors.As(err, &bse) {
		t.Fatalf("error %v (%T) is not a *BSError", err, err)
	}
	if bse.Op != "exchange" || bse.Round != 1 {
		t.Fatalf("BSError op=%q round=%d, want exchange in round 1: %v", bse.Op, bse.Round, err)
	}
}

// TestCoordinatorsRejectMalformedResponses plays a BS answering with each
// malformed response against both coordinators: the single and the
// region coordinator must return an exchange error, never panic or apply
// the frame, and the region coordinator under Recover must crash the BS
// out of the run and still commit a valid matching.
func TestCoordinatorsRejectMalformedResponses(t *testing.T) {
	net_ := buildNet(t, 60, 2)
	for _, tc := range malformedResponses {
		t.Run(tc.name, func(t *testing.T) {
			setTamper(t, tc.tamper)
			cres, err := RunClusterWith(net_, ClusterConfig{DMRA: alloc.DefaultDMRAConfig(), Shards: 2})
			if err == nil {
				t.Fatal("single coordinator applied a malformed response")
			}
			wantExchangeError(t, err)
			if cres.Assignment.ServingBS != nil {
				t.Error("failed run returned a non-zero result")
			}

			rc := RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: 2, ExchangeTimeout: 2 * time.Second}
			if _, err := RunRegionCluster(net_, rc); err == nil {
				t.Fatal("region coordinator applied a malformed response")
			} else {
				wantExchangeError(t, err)
			}

			rc.Recover = true
			res, err := RunRegionCluster(net_, rc)
			if err != nil {
				t.Fatalf("recovering coordinator failed: %v", err)
			}
			if res.CrashedBSs == 0 {
				t.Fatal("no BS crashed out of the recovering run")
			}
			if served := res.Assignment.ServedCount(); served != 0 {
				t.Fatalf("%d UEs served by BSs whose every answer was malformed", served)
			}
		})
	}
}
