package online

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"dmra/internal/workload"
)

// incrementalGoldenConfig is a delta-repair churn session on the
// unscaled dense city (1 100 profiles, 25 BSs): ~8 arrivals/s held ~90 s,
// so a few hundred UEs are concurrent and departures, repairs and cloud
// fallbacks all happen. Series and a timeline are recorded.
func incrementalGoldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Scenario = workload.DenseCity()
	cfg.ArrivalRate = 8
	cfg.MeanHoldS = 90
	cfg.DurationS = 240
	cfg.Incremental = true
	cfg.RecordSeries = true
	cfg.TimelineEveryS = 2
	return cfg
}

// incrementalGolden is the full Report of one incremental session:
// every counter, the float integrals as bits, and SHA-256 digests of
// the per-epoch series and of the timeline bytes.
type incrementalGolden struct {
	Arrivals, Departures, Saturated        int
	EdgeServed, CloudServed                int
	ProfitTime, MeanConcurrent, MeanOccRRB uint64
	Epochs, ReassignChecks, Events         int
	DeltaFrontier, DeltaReleased           int
	DeltaInvalidated, DeltaRepairRounds    int
	Series, Timeline                       string
}

func goldenOf(rep Report, timeline []byte) incrementalGolden {
	return incrementalGolden{
		Arrivals: rep.Arrivals, Departures: rep.Departures, Saturated: rep.Saturated,
		EdgeServed: rep.EdgeServed, CloudServed: rep.CloudServed,
		ProfitTime:     math.Float64bits(rep.ProfitTime),
		MeanConcurrent: math.Float64bits(rep.MeanConcurrent),
		MeanOccRRB:     math.Float64bits(rep.MeanOccupancyRRB),
		Epochs:         rep.Epochs, ReassignChecks: rep.ReassignChecks, Events: rep.Events,
		DeltaFrontier: rep.DeltaFrontier, DeltaReleased: rep.DeltaReleased,
		DeltaInvalidated: rep.DeltaInvalidated, DeltaRepairRounds: rep.DeltaRepairRounds,
		Series:   fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", rep.Series)))),
		Timeline: fmt.Sprintf("%x", sha256.Sum256(timeline)),
	}
}

// TestIncrementalSessionGolden pins an incremental-mode session, Delta*
// counters, series and timeline included, to values captured before the
// session's event loop was optimised (running RRB total, value-typed
// event heap, margins cached at admission). Any change to event order,
// integration or profit accounting shows up here.
func TestIncrementalSessionGolden(t *testing.T) {
	want := map[uint64]incrementalGolden{
		1: {Arrivals: 1931, Departures: 1238, EdgeServed: 1448, CloudServed: 483,
			ProfitTime: 0x412ce62b93aa4bca, MeanConcurrent: 0x407e95cbf7eacf65, MeanOccRRB: 0x3fe1207c5b5ef608,
			Epochs: 240, ReassignChecks: 1931, Events: 3649,
			DeltaFrontier: 1931, DeltaReleased: 963, DeltaInvalidated: 1919, DeltaRepairRounds: 620,
			Series:   "277340631f0f3c122c92eb573313af4199680c96cf99aae6fc984025073510ef",
			Timeline: "143c778ac574b3b203bf1f44b593696bd7538e1c00c3ec102f64a1cc9bffdaca"},
		2: {Arrivals: 1891, Departures: 1251, EdgeServed: 1755, CloudServed: 136,
			ProfitTime: 0x4130a9a1c56f26b5, MeanConcurrent: 0x407cb70f752366f3, MeanOccRRB: 0x3fe4f8a7eabd31fd,
			Epochs: 240, ReassignChecks: 1891, Events: 3622,
			DeltaFrontier: 1891, DeltaReleased: 1181, DeltaInvalidated: 1878, DeltaRepairRounds: 635,
			Series:   "047aa50bc52e20a445a10294d9c8e4d51c6566a35af5de2905bc216acac3a41d",
			Timeline: "2f72673df3f997218520c5d8874a1414943d5c5e8b10f69dfd0a273aba570a73"},
	}
	for _, seed := range []uint64{1, 2} {
		cfg := incrementalGoldenConfig()
		cfg.Seed = seed
		var tl bytes.Buffer
		cfg.Timeline = &tl
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := goldenOf(rep, tl.Bytes())
		if rep.Series == nil || tl.Len() == 0 || rep.Departures == 0 || rep.DeltaReleased == 0 {
			t.Fatalf("seed %d: golden session is vacuous: %+v", seed, got)
		}
		if rep.Cohorts != nil {
			t.Errorf("seed %d: default session reported cohorts: %+v", seed, rep.Cohorts)
		}
		if w, ok := want[seed]; !ok || got != w {
			t.Errorf("seed %d: incremental session diverged:\n got %#v\nwant %#v", seed, got, w)
		}
	}
}
