package alloc

import (
	"fmt"
	"sync"

	"dmra/internal/engine"
	"dmra/internal/mec"
	"dmra/internal/obs"
)

// DMRAConfig parameterizes the DMRA scheme. It is the engine's Config
// under the name the experiment layers have always used; see
// internal/engine for the ablation-switch documentation.
type DMRAConfig = engine.Config

// DefaultDMRAConfig returns the paper's algorithm with a mid-sweep rho
// (the Fig. 6 sweep peaks between rho = 250 and 1000 under the default
// scenario; 250 performs well at both iota settings).
func DefaultDMRAConfig() DMRAConfig {
	return engine.DefaultConfig()
}

// DMRA is the Decentralized Multi-SP Resource Allocation scheme (Alg. 1).
//
// This type is the synchronous in-memory solver: it runs the canonical
// round state machine of internal/engine on an engine.Arena over the
// network's dense candidate view. internal/protocol runs the same engine
// rounds as real message exchange between UE/BS actors and internal/wire
// runs them over TCP; the three are integration-tested to produce
// identical assignments.
type DMRA struct {
	cfg  DMRAConfig
	obs  *obs.Recorder
	hook engine.RoundHook
	// naive, when set, replaces the arena run with the test-only reference
	// implementation the differential tests pin the arena against.
	naive func(net *mec.Network, res *Result) error
	// workers is the arena's per-phase worker count; 0 means auto (see
	// WithProposeWorkers). Results are byte-identical at any value.
	workers int
	// pool recycles runState across Allocate calls. Experiment drivers
	// share one allocator instance across worker goroutines, so the
	// scratch must be pooled, not a struct field.
	pool sync.Pool
}

// runState is the recycled per-run scratch: the arena, whose storage is
// reused across runs and epochs, and an observed run's event buffer.
type runState struct {
	arena engine.Arena
	// events buffers an observed run's trace events between flushes to
	// the recorder (see eventFlushLen).
	events []obs.Event
}

// eventFlushLen bounds the observed run's event buffer: a full buffer
// (~3.5 MB of events) is flushed to the recorder mid-round, so memory
// stays flat however large the population.
const eventFlushLen = 1 << 16

var _ Allocator = (*DMRA)(nil)

// NewDMRA returns a DMRA allocator with the given configuration.
func NewDMRA(cfg DMRAConfig) *DMRA {
	return &DMRA{cfg: cfg}
}

// WithObserver attaches an observability recorder and returns the
// allocator for chaining. A nil recorder (the default) keeps Allocate
// allocation-free on the hot path: every instrumentation site is behind
// one pointer test. Events reach the recorder in batches, each round's
// by the end of that round.
func (d *DMRA) WithObserver(rec *obs.Recorder) *DMRA {
	d.obs = rec
	return d
}

// WithProposeWorkers sets the arena's worker count, which sizes both
// the propose and the select phase of every round, and returns the
// allocator for chaining. A positive n runs exactly n workers per phase
// (fewer when a phase has fewer items). Zero (the default) is auto: up
// to GOMAXPROCS, with a per-worker work floor that keeps small rounds
// on the caller's goroutine. The assignment, statistics, and event
// stream are byte-identical at any worker count; the knob only trades
// wall-clock for cores.
func (d *DMRA) WithProposeWorkers(n int) *DMRA {
	d.workers = n
	return d
}

// WithRoundHook attaches a per-round state-export hook and returns the
// allocator for chaining. The hook fires once per round — after the
// select phase, and once more for the final round in which no UE
// proposed — with the full matching state at that barrier. The snapshot
// is reused across calls; Clone to retain. Nil (the default) is free.
func (d *DMRA) WithRoundHook(h engine.RoundHook) *DMRA {
	d.hook = h
	return d
}

// Name implements Allocator.
func (d *DMRA) Name() string { return "DMRA" }

// Config returns the allocator's configuration.
func (d *DMRA) Config() DMRAConfig { return d.cfg }

// Preference evaluates v_{u,i} (Eq. 17) under the current ledger.
func (d *DMRA) Preference(s *mec.State, l mec.Link) float64 {
	ue := &s.Network().UEs[l.UE]
	return d.cfg.Preference(l, s.RemainingCRU(l.BS, ue.Service), s.RemainingRRBs(l.BS))
}

// Allocate implements Allocator by running Alg. 1 to quiescence.
func (d *DMRA) Allocate(net *mec.Network) (Result, error) {
	var res Result
	if err := d.AllocateInto(net, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// AllocateInto runs Alg. 1 to quiescence on the arena engine, writing the
// outcome into res and reusing res's backing storage where possible. The
// arena's storage is pooled across calls, so callers that recycle the
// same Result (benchmarks, repeated experiment points, online epochs) see
// zero heap allocations per run in steady state with a nil observer and
// hook. With them attached it emits the ordered event and snapshot
// streams of the naive reference (the parity fuzz pins both). Events are
// buffered in runState and handed to the recorder in batches: when the
// buffer fills, at every round's end, and when the run returns. A network
// with no dense view (over ~2.1e9 candidate links) is an error.
func (d *DMRA) AllocateInto(net *mec.Network, res *Result) error {
	if d.naive != nil {
		return d.naive(net, res)
	}
	rs, _ := d.pool.Get().(*runState)
	if rs == nil {
		rs = &runState{}
	}
	defer d.pool.Put(rs)
	a := &rs.arena

	var hooks *engine.SoAHooks
	if d.obs != nil || d.hook != nil {
		hooks = &engine.SoAHooks{Snapshot: d.hook}
		if d.obs != nil {
			round := 0
			var lastScanned uint64
			scanned := func() {
				d.obs.CandidatesScanned(int64(a.Scanned() - lastScanned))
				lastScanned = a.Scanned()
			}
			flush := func() {
				d.obs.Events(rs.events)
				rs.events = rs.events[:0]
			}
			defer scanned()
			defer flush()
			event := func(kind obs.EventKind, ue, bs int) {
				if len(rs.events) == eventFlushLen {
					flush()
				}
				rs.events = append(rs.events, obs.Event{Kind: kind, Round: round, UE: ue, BS: bs})
			}
			hooks.Round = func(r int) {
				round = r
				event(obs.KindRound, -1, -1)
			}
			hooks.Propose = func(u, b int32) {
				event(obs.KindPropose, int(u), int(b))
			}
			hooks.Cloud = func(u int32) {
				event(obs.KindCloudFallback, int(u), int(mec.CloudBS))
			}
			hooks.Verdict = func(b int32, v engine.Verdict) {
				if v.Accepted {
					event(obs.KindAccept, int(v.Req.UE), int(b))
				} else {
					event(obs.KindRejectTrim, int(v.Req.UE), int(b))
				}
			}
			hooks.RoundDone = func(int) {
				flush()
				d.observeArenaRound(a)
				scanned()
			}
		}
	}

	stats, err := a.Run(net, d.cfg, d.workers, hooks)
	if err != nil {
		return fmt.Errorf("alloc: DMRA: %w", err)
	}
	serving := a.Serving()
	if cap(res.Assignment.ServingBS) < len(serving) {
		res.Assignment.ServingBS = make([]mec.BSID, len(serving))
	}
	res.Assignment.ServingBS = res.Assignment.ServingBS[:len(serving)]
	for u, b := range serving {
		res.Assignment.ServingBS[u] = mec.BSID(b)
	}
	res.Stats = Stats{
		Iterations: stats.Rounds,
		Proposals:  stats.Proposals,
		Accepts:    stats.Accepts,
		Rejects:    stats.Rejects,
	}
	return nil
}

// observeArenaRound publishes the per-round gauges: residual capacity
// per BS (CRUs summed over services, RRBs) and the unmatched-UE count.
func (d *DMRA) observeArenaRound(a *engine.Arena) {
	for b := 0; b < a.BSs(); b++ {
		crus := 0
		for j := 0; j < a.Services(); j++ {
			crus += a.RemCRU(b, j)
		}
		d.obs.Residual(b, crus, a.RemRRB(b))
	}
	d.obs.Unmatched(a.UEs() - a.AssignedCount())
}
