package sim

import (
	"reflect"
	"sort"
	"testing"

	"dmra/internal/rng"
)

// scheduler is the Engine surface the differential test drives.
type scheduler interface {
	Now() float64
	Pending() int
	Processed() int
	ScheduleAt(t float64, fn func())
	Step() bool
	Run() int
	RunUntil(t float64) int
	RunMax(n int) int
}

// refEngine is the differential reference for Engine: pending events in
// scheduling order, popped after a stable sort on time, so events at
// equal times fire in scheduling order by construction.
type refEngine struct {
	now       float64
	pending   []refEvent
	processed int
}

type refEvent struct {
	time float64
	fn   func()
}

func (r *refEngine) Now() float64   { return r.now }
func (r *refEngine) Pending() int   { return len(r.pending) }
func (r *refEngine) Processed() int { return r.processed }

func (r *refEngine) ScheduleAt(t float64, fn func()) {
	r.pending = append(r.pending, refEvent{time: t, fn: fn})
}

func (r *refEngine) Step() bool {
	if len(r.pending) == 0 {
		return false
	}
	sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].time < r.pending[j].time })
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.time
	r.processed++
	ev.fn()
	return true
}

func (r *refEngine) Run() int {
	n := 0
	for r.Step() {
		n++
	}
	return n
}

func (r *refEngine) RunUntil(t float64) int {
	n := 0
	for len(r.pending) > 0 {
		sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].time < r.pending[j].time })
		if r.pending[0].time > t {
			break
		}
		r.Step()
		n++
	}
	if t > r.now {
		r.now = t
	}
	return n
}

func (r *refEngine) RunMax(n int) int {
	ran := 0
	for ran < n && r.Step() {
		ran++
	}
	return ran
}

// delays are few and exactly representable, so sums collide often and
// equal-time ties are the common case, zero delay included.
var delays = []float64{0, 0, 0.5, 1, 1, 2, 3}

// fired is one callback execution: the event's scheduling index and the
// clock it saw.
type fired struct {
	id  int
	now float64
}

// opResult is what one driver call returned and left behind.
type opResult struct {
	ret, pending, processed int
	now                     float64
}

// driveScript runs one seeded script against s: outside scheduling and
// Step, Run, RunUntil and RunMax calls, with callbacks that schedule
// 0-2 further events (a pure function of the seed and the event's
// scheduling index, capped so the tree stays finite). It returns the
// fire log and each call's outcome.
func driveScript(seed uint64, s scheduler) ([]fired, []opResult) {
	var (
		log    []fired
		ops    []opResult
		nextID int
	)
	var schedule func(at float64)
	schedule = func(at float64) {
		id := nextID
		nextID++
		s.ScheduleAt(at, func() {
			log = append(log, fired{id, s.Now()})
			if id >= 2000 {
				return
			}
			src := rng.New(seed*1_000_003 + uint64(id))
			for k := src.Intn(3); k > 0; k-- {
				schedule(s.Now() + delays[src.Intn(len(delays))])
			}
		})
	}
	drv := rng.New(seed).SplitLabeled("driver")
	for op := 0; op < 400; op++ {
		ret := 0
		switch drv.Intn(7) {
		case 0, 1, 2:
			schedule(s.Now() + delays[drv.Intn(len(delays))])
		case 3:
			if s.Step() {
				ret = 1
			}
		case 4:
			ret = s.RunMax(drv.Intn(6))
		case 5:
			ret = s.RunUntil(s.Now() + delays[drv.Intn(len(delays))])
		case 6:
			ret = s.RunUntil(s.Now()) // fires only the ties with the clock
		}
		ops = append(ops, opResult{ret, s.Pending(), s.Processed(), s.Now()})
	}
	ops = append(ops, opResult{s.Run(), s.Pending(), s.Processed(), s.Now()})
	return log, ops
}

// TestHeapMatchesStableSortReference checks the value heap against the
// stable-sort reference: the same fire order (ties and callback-scheduled
// events included), clock, return values and counters on every call.
func TestHeapMatchesStableSortReference(t *testing.T) {
	ties := 0
	for seed := uint64(1); seed <= 40; seed++ {
		wantLog, wantOps := driveScript(seed, &refEngine{})
		gotLog, gotOps := driveScript(seed, &Engine{})
		if !reflect.DeepEqual(gotLog, wantLog) {
			t.Fatalf("seed %d: fire order diverged from the reference\n got %v\nwant %v", seed, gotLog, wantLog)
		}
		if !reflect.DeepEqual(gotOps, wantOps) {
			t.Fatalf("seed %d: call outcomes diverged from the reference\n got %v\nwant %v", seed, gotOps, wantOps)
		}
		for i := 1; i < len(wantLog); i++ {
			if wantLog[i].now == wantLog[i-1].now {
				ties++
			}
		}
		if len(wantLog) < 500 {
			t.Fatalf("seed %d: only %d events fired; the script is too thin", seed, len(wantLog))
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d equal-time neighbours across all seeds; ties are not exercised", ties)
	}
}
