package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"dmra/internal/online"
	"dmra/internal/workload"
)

const (
	// arrivalsPerUE scales the Poisson arrival rate with the profile
	// pool: 500 UE/s on the 110k-UE dense city, 125 UE/s on the 27.5k one.
	arrivalsPerUE = 500.0 / 110000
	// meanHoldS is the mean session length; about half the pool is
	// concurrent.
	meanHoldS = 120
	// horizonS is the simulated length of one session, and epochS its
	// re-allocation period.
	horizonS = 1200
	epochS   = 1
	// rampS is the warm-up excluded from epoch percentiles: two mean
	// holds, by which the concurrent population has reached ~86% of its
	// steady state.
	rampS = 2 * meanHoldS
)

// sessionConfig is the online-churn session over the scale-s dense city.
func sessionConfig(scale int, seed uint64) online.Config {
	cfg := online.DefaultConfig()
	cfg.Scenario = workload.DenseCity().Scale(scale)
	cfg.ArrivalRate = arrivalsPerUE * float64(cfg.Scenario.UEs)
	cfg.MeanHoldS = meanHoldS
	cfg.EpochS = epochS
	cfg.DurationS = horizonS
	cfg.Incremental = true
	cfg.Seed = seed
	return cfg
}

// stamper is a Timeline writer that only reads the clock: the session
// writes one sample per simulated epoch, right after that epoch's match.
type stamper struct{ at []time.Time }

func (s *stamper) Write(p []byte) (int, error) {
	s.at = append(s.at, time.Now())
	return len(p), nil
}

// session is one timed online.Run.
type session struct {
	rep     online.Report
	total   time.Duration
	setup   time.Duration // Run call to first timeline sample
	epochMS []float64     // host time per simulated epoch, ramp excluded
}

// runSession runs cfg with a clock-stamping timeline.
func runSession(cfg online.Config) (session, error) {
	st := &stamper{}
	cfg.Timeline = st
	start := time.Now()
	rep, err := online.Run(cfg)
	total := time.Since(start)
	if err != nil {
		return session{}, fmt.Errorf("online.Run: %w", err)
	}
	if want := int(cfg.DurationS / cfg.EpochS); len(st.at) != want || rep.Epochs != want {
		return session{}, fmt.Errorf("online.Run: %d timeline samples and %d epochs, want %d", len(st.at), rep.Epochs, want)
	}
	s := session{rep: rep, total: total, setup: st.at[0].Sub(start)}
	// Sample i is written at simulated time (i+1)*EpochS; the gap before
	// it is the host time of that epoch.
	for i := 1; i < len(st.at); i++ {
		if float64(i+1)*cfg.EpochS > rampS {
			s.epochMS = append(s.epochMS, ms(st.at[i].Sub(st.at[i-1])))
		}
	}
	return s, nil
}

const (
	// sessionScale sizes the online-churn city: 27,500 UEs and 625 BSs.
	// The median epoch moves by ~12% from one session to the next, even
	// on one city in one process. A session here takes ~1 s, so a run
	// pools dozens; a 110k session takes ~8 s, and runs of four such
	// sessions spread their medians by 17-26% from seed to seed.
	sessionScale = 5
	// sessionSeeds is how many cities a run cycles through, all drawn
	// from its seed; profit and cloud_share average over them.
	sessionSeeds = 8
)

// onlineChurn runs the delta-repaired online session under Poisson churn.
// It runs pairs of sessions on the same city, one plain and one carrying
// an obs.Recorder, cycling through sessionSeeds cities drawn from the run's
// seed. Both sessions of a pair must return the same Report: same seed,
// same result, with or without telemetry.
func onlineChurn(r *run) {
	const scale = sessionScale
	cfg := sessionConfig(scale, r.seed)
	r.note("sizes", map[string]any{
		"scale": scale, "pool_ues": cfg.Scenario.UEs, "cities": sessionSeeds,
		"bss":           cfg.Scenario.SPs * cfg.Scenario.BSsPerSP,
		"arrival_per_s": cfg.ArrivalRate, "mean_hold_s": cfg.MeanHoldS,
		"horizon_s": cfg.DurationS, "epoch_s": cfg.EpochS, "ramp_s": rampS,
	})

	need := samplesFor(tailQ)
	var (
		epochs, obsEpochs, setups []float64
		events                    int
		busy                      time.Duration
		reports                   []online.Report // one per city
	)
	start := time.Now()
	for pair := 0; time.Since(start) < r.seconds || len(epochs) < need || pair < sessionSeeds; pair++ {
		c := sessionConfig(scale, r.seed*sessionSeeds+uint64(pair%sessionSeeds))
		// Collect the previous session's garbage outside any timed span,
		// so peak RSS and GC work do not depend on where a cycle fell.
		runtime.GC()
		s, err := runSession(c)
		if !r.op(err) {
			return
		}
		c.Obs = newRecorder()
		runtime.GC()
		o, err := runSession(c)
		if err == nil && !reflect.DeepEqual(o.rep, s.rep) {
			err = fmt.Errorf("online.Run: seed %d: the observed session's report differs from the plain one's", c.Seed)
		}
		if !r.op(err) {
			return
		}
		if pair < sessionSeeds {
			reports = append(reports, s.rep)
		}
		setups = append(setups, secs(s.setup), secs(o.setup))
		epochs = append(epochs, s.epochMS...)
		obsEpochs = append(obsEpochs, o.epochMS...)
		events += s.rep.Events
		busy += s.total
	}

	var profit, cloud, admitted float64
	for _, rep := range reports {
		profit += rep.ProfitTime
		cloud += float64(rep.CloudServed)
		admitted += float64(rep.EdgeServed + rep.CloudServed)
	}
	r.set("setup_s", median(setups))
	setOpMetrics(r, epochs, obsEpochs)
	r.set("throughput_per_s", float64(events)/busy.Seconds())
	r.set("profit", profit/sessionSeeds)
	r.set("cloud_share", cloud/admitted)
	r.note("op", "one simulated epoch of an incremental online.Run session (host time between timeline samples)")
	r.note("sessions", len(setups))
	r.note("events_per_session", reports[0].Events)
	r.note("mean_concurrent", reports[0].MeanConcurrent)
	r.note("saturated", reports[0].Saturated)
}
