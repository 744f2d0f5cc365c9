// Package sim is a deterministic discrete-event simulation engine: a
// virtual clock and a priority queue of timestamped callbacks. Events at
// equal timestamps fire in scheduling order, so a run is a pure function
// of the scheduling sequence — the property the protocol-parity tests in
// internal/protocol rely on.
package sim

import "fmt"

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Engines are not safe for concurrent use; the simulated
// concurrency of the actors comes from event interleaving, not goroutines.
type Engine struct {
	now float64
	seq uint64
	// queue is a binary min-heap of events by value on (time, seq): the
	// children of slot i sit at 2i+1 and 2i+2. Scheduling allocates
	// nothing once the slice has grown, and ordering is a plain field
	// compare with no interface dispatch or pointer chasing.
	queue     []event
	processed int
}

// event is one scheduled callback.
type event struct {
	time float64
	seq  uint64
	fn   func()
}

// before is the heap order. seq is unique per engine, so (time, seq) is
// a strict total order and the pop sequence is fully determined by the
// scheduling sequence — equal times fire in scheduling order.
func (a *event) before(b *event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int { return e.processed }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues fn to run delay seconds from now. It panics on
// negative delays — scheduling into the past is always a bug.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt enqueues fn to run at absolute time t, which must not precede
// the current time.
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", t, e.now))
	}
	e.seq++
	ev := event{time: t, seq: e.seq, fn: fn}
	e.queue = append(e.queue, ev)
	q := e.queue
	// Sift up: move parents down until ev's slot is found.
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	q := e.queue
	n := len(q) - 1
	if n < 0 {
		return false
	}
	ev := q[0]
	last := q[n]
	q[n] = event{} // drop the callback reference for the GC
	q = q[:n]
	e.queue = q
	if n > 0 {
		// Sift down: move the smaller child up until last's slot is found.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	e.now = ev.time
	e.processed++
	ev.fn()
	return true
}

// Run executes events until the queue drains and returns the number of
// events processed by this call. Callbacks may schedule further events;
// with self-perpetuating schedules use RunUntil or MaxEvents instead.
func (e *Engine) Run() int {
	start := e.processed
	for e.Step() {
	}
	return e.processed - start
}

// RunUntil executes events with time <= t and then advances the clock to
// t. It returns the number of events processed by this call.
func (e *Engine) RunUntil(t float64) int {
	start := e.processed
	for len(e.queue) > 0 && e.queue[0].time <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
	return e.processed - start
}

// RunMax executes at most n events and returns how many ran. Use it as a
// watchdog around protocols that should quiesce.
func (e *Engine) RunMax(n int) int {
	ran := 0
	for ran < n && e.Step() {
		ran++
	}
	return ran
}
