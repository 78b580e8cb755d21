package sim

import "fmt"

// Simulator owns the virtual clock and the event queue. It is not safe for
// concurrent use: the whole simulation runs single-threaded, which is what
// makes runs bit-for-bit reproducible.
//
// Two scheduling families exist. At/After/Every return a *Timer handle the
// caller may Cancel at any point, so those Timers are never recycled. The
// pooled family — Schedule/ScheduleArg, which return no handle, and
// NewTimer+Reschedule, which reuse one handle for a timer's whole life —
// keeps steady-state event scheduling allocation-free: fired no-handle
// Timers return to a free list, and rescheduling re-arms in place.
type Simulator struct {
	now     Time
	queue   eventQueue
	stopped bool
	events  uint64 // total events dispatched, for reporting
	rng     *SeedSpace
	free    []*Timer // recycled no-handle Timers
	probes  any      // opaque probe-bus slot; see SetProbes
}

// New returns a Simulator whose random streams derive from seed.
func New(seed uint64) *Simulator {
	return &Simulator{rng: NewSeedSpace(seed)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Events returns the number of events dispatched so far.
func (s *Simulator) Events() uint64 { return s.events }

// Stream returns the named deterministic random stream. Streams with the
// same name on simulators built from the same seed produce identical
// sequences regardless of how many other streams exist.
func (s *Simulator) Stream(name string) *Rand { return s.rng.Stream(name) }

// SetProbes installs the run's probe bus on the simulator, where every
// layer built over this clock can find it (internal/probe.FromSim). The
// slot is deliberately untyped: sim is the bottom of the import graph, so
// it cannot name the concrete bus type internal/probe owns.
func (s *Simulator) SetProbes(v any) { s.probes = v }

// Probes returns the value installed by SetProbes (nil when the run
// carries no probe bus).
func (s *Simulator) Probes() any { return s.probes }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (before Now) panics: it always indicates a protocol-logic bug. The
// returned Timer can cancel the event before it fires.
func (s *Simulator) At(at Time, fn func()) *Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	t := &Timer{at: at, fn: fn, sim: s}
	s.queue.push(t)
	return t
}

// After schedules fn to run d from now. d must be non-negative.
func (s *Simulator) After(d Time, fn func()) *Timer {
	checkNonNegative(d)
	return s.At(s.now+d, fn)
}

// Schedule is the pooled fire-and-forget variant of At: no handle is
// returned, so the Timer cannot be cancelled — and, because nothing can
// reference it after it fires, it is recycled through the simulator's free
// list. Dispatch order is identical to At (same-deadline events fire FIFO
// in push order across both families).
func (s *Simulator) Schedule(at Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	t := s.pooledTimer(at)
	t.fn = fn
	s.queue.push(t)
}

// ScheduleArg is Schedule for a callback taking one argument. Passing the
// argument through the Timer instead of a closure keeps hot schedulers
// (e.g. the medium's per-transmission completion events) from allocating a
// closure per event; with a pointer argument the call is allocation-free.
func (s *Simulator) ScheduleArg(at Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: nil event function")
	}
	t := s.pooledTimer(at)
	t.fnArg, t.arg = fn, arg
	s.queue.push(t)
}

func (s *Simulator) pooledTimer(at Time) *Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	var t *Timer
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free = s.free[:n-1]
		*t = Timer{sim: s, pooled: true}
	} else {
		t = &Timer{sim: s, pooled: true}
	}
	t.at = at
	return t
}

func (s *Simulator) release(t *Timer) {
	t.fn, t.fnArg, t.arg = nil, nil, nil // drop references, keep the Timer
	s.free = append(s.free, t)
}

// NewTimer returns an unarmed timer bound to fn, for callers that re-arm
// one logical timeout over and over (MAC backoff chains, Trickle beacons):
// allocate once, then Reschedule each occurrence. The zero-cost
// alternative to a cancel-and-After pair per occurrence.
func (s *Simulator) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	return &Timer{sim: s, fn: fn, fired: true} // fired: born unarmed
}

// Every schedules fn to run every interval, starting at start. The returned
// Timer cancels the whole series. Each firing reuses the Timer, so holding
// the pointer is enough to stop the periodic task.
func (s *Simulator) Every(start, interval Time, fn func()) *Timer {
	checkNonNegative(interval)
	t := &Timer{sim: s, fn: fn, repeat: interval}
	t.at = start
	if start < s.now {
		panic(fmt.Sprintf("sim: periodic start %v before now %v", start, s.now))
	}
	s.queue.push(t)
	return t
}

// Step dispatches the next pending event, if any, advancing the clock to its
// deadline. It reports whether an event ran.
func (s *Simulator) Step() bool {
	t := s.queue.peek()
	if t == nil {
		return false
	}
	s.queue.pop()
	s.now = t.at
	s.events++
	fn, fnArg, arg := t.fn, t.fnArg, t.arg
	if t.repeat > 0 && !t.cancelled {
		t.at += t.repeat
		s.queue.push(t)
	} else {
		t.fired = true
		if t.pooled {
			// Recycle before dispatch so the callback itself can reuse the
			// slot for whatever it schedules next.
			s.release(t)
		}
	}
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
	return true
}

// Run dispatches events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil dispatches events with deadlines <= t, then sets the clock to t.
// Events scheduled exactly at t do run.
func (s *Simulator) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		next := s.queue.peek()
		if next == nil || next.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by span d.
func (s *Simulator) RunFor(d Time) {
	checkNonNegative(d)
	s.RunUntil(s.now + d)
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (s *Simulator) Stop() { s.stopped = true }

// Pending returns the number of scheduled events (including cancelled timers
// not yet reaped — cancellation removes immediately, so this is exact).
func (s *Simulator) Pending() int { return s.queue.Len() }

// Timer is a handle to a scheduled event. While queued it is a node of an
// intrusive timing-wheel bucket list (next/prev/bkt); bkt non-nil is the
// queued state.
type Timer struct {
	at         Time
	next, prev *Timer
	bkt        *bucket
	fn         func()
	fnArg      func(any)
	arg        any
	sim        *Simulator
	repeat     Time
	fired      bool
	cancelled  bool
	pooled     bool
}

// Cancel removes the event from the queue. It reports whether the event was
// still pending (i.e. the cancellation had effect). Cancelling an
// already-fired or already-cancelled timer is a no-op.
func (t *Timer) Cancel() bool {
	if t.cancelled || t.fired || t.bkt == nil && t.repeat == 0 {
		return false
	}
	t.cancelled = true
	if t.bkt != nil {
		t.sim.queue.remove(t)
		return true
	}
	return false
}

// Active reports whether the timer is still scheduled to fire.
func (t *Timer) Active() bool { return !t.cancelled && !t.fired }

// Deadline returns the next firing time.
func (t *Timer) Deadline() Time { return t.at }

// Reschedule (re-)arms the timer to fire its function at absolute time at,
// whether it is currently pending, already fired, cancelled, or fresh from
// NewTimer. A pending timer is moved in place — an O(1) bucket unlink and
// re-append instead of the remove-push pair of the Cancel-plus-After
// idiom, and no allocation ever. Dispatch ordering matches a freshly
// scheduled event exactly: the move re-appends like a new push, so it
// joins the FIFO tail of its deadline.
func (t *Timer) Reschedule(at Time) {
	s := t.sim
	if at < s.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", at, s.now))
	}
	if t.pooled {
		panic("sim: Reschedule on a pooled (no-handle) timer")
	}
	if t.bkt != nil {
		s.queue.remove(t) // before t.at changes: removal recovers the slot from it
	}
	t.at = at
	t.fired, t.cancelled = false, false
	s.queue.push(t)
}

// RescheduleAfter re-arms the timer d from now. d must be non-negative.
func (t *Timer) RescheduleAfter(d Time) {
	checkNonNegative(d)
	t.Reschedule(t.sim.now + d)
}
