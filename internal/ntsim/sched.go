package ntsim

import (
	"time"

	"ntdts/internal/telemetry"
	"ntdts/internal/vclock"
)

// sched is the cooperative single-CPU scheduler. A standalone Kernel owns
// a one-kernel scheduler; a Machine is a scheduler whose kernels (its
// nodes) share one clock and one ready ring, so every node's wakes
// interleave in strict FIFO order and exactly one process executes at any
// instant machine-wide. Kernel embeds *sched and Machine embeds sched, so
// Step, Run, RunFor, Idle, KillAll and the ceiling and attention controls
// are written once and act on the whole scheduler either way.
type sched struct {
	clock   *vclock.Clock
	kernels []*Kernel // in attachment order; KillAll tears down in this order

	// ready is a ring: entries [readyHead:len) are queued. Popping moves
	// the head index instead of re-slicing, so the backing array is
	// reused for the whole run rather than re-grown every quantum (the
	// single hottest allocation site in a campaign profile).
	ready     []*Process
	readyHead int
	current   *Process

	// yield is signaled by the running process when it returns the CPU
	// to the harness goroutine blocked in Step.
	yield chan struct{}

	// attn is raised by kernel-side state changes that a harness Step
	// loop polls for (SCM status transitions) on any kernel. While set,
	// the fast path keeps every handoff on the harness so the change is
	// observed at exactly the quantum boundary it would have been
	// without it. Cleared at every Step entry.
	attn bool

	// ceil bounds how far the fast path may run without returning
	// control to the harness. The fast path is disabled entirely until a
	// ceiling is set (SetSchedCeiling or Run), so bare Step loops keep
	// the exact handoff-per-quantum behaviour.
	ceil    vclock.Time
	ceilSet bool
}

func newSched() *sched {
	return &sched{clock: vclock.New(), yield: make(chan struct{})}
}

// Clock exposes the scheduler's virtual clock.
func (s *sched) Clock() *vclock.Clock { return s.clock }

// Now returns the current virtual time.
func (s *sched) Now() vclock.Time { return s.clock.Now() }

// makeReady appends p to the ready ring if it is not already queued.
func (s *sched) makeReady(p *Process) {
	if p.state == procTerminated {
		return
	}
	p.state = procReady
	if p.queued {
		return
	}
	p.queued = true
	s.ready = append(s.ready, p)
}

// readyCount reports how many processes are queued for the CPU.
func (s *sched) readyCount() int { return len(s.ready) - s.readyHead }

// popReady removes and returns the head of the ready ring.
func (s *sched) popReady() *Process {
	p := s.ready[s.readyHead]
	s.ready[s.readyHead] = nil
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
	return p
}

// popLive pops ready entries until a live one comes up, skipping stale
// entries (e.g. terminated meanwhile); nil when the ring runs out.
func (s *sched) popLive() *Process {
	for s.readyCount() > 0 {
		p := s.popReady()
		p.queued = false
		if p.state == procReady {
			return p
		}
	}
	return nil
}

// dispatch gives the CPU to p. The caller then waits for it: the harness
// on yield, a handing-off process on its own resume channel.
func (s *sched) dispatch(p *Process) {
	p.state = procRunning
	s.current = p
	p.k.tel.Add(telemetry.CtrSchedQuanta, 1)
	p.resume <- resumeAction{kill: p.pendingKill, killCode: p.pendingKillCode}
}

// RequestAttention asks the scheduler to return control to the harness at
// the next quantum boundary. Kernel-adjacent services (the SCM) call it
// when they change state a harness Step loop polls for, so the fast path
// never coalesces quanta across an observation the slow path would have
// made. The flag clears at the next Step entry.
func (s *sched) RequestAttention() { s.attn = true }

// SetSchedCeiling authorizes the scheduler fast path up to (but not
// including) ceil. While no timer work is due and no attention request
// is pending, the running process keeps the CPU away from the harness
// exactly until the first boundary at which a harness loop stepping with
// `for cond && s.Now().Before(ceil)` would regain control: a lone
// process's end-of-quantum handoffs and sleeps are elided (the clock
// advances without a park/resume round-trip), and a process that gives
// up the CPU to a ready peer resumes that peer itself instead of routing
// the switch through the harness. Telemetry quanta counters are
// maintained as if every handoff had gone through Step, so traces and
// archives stay byte-identical. Harness loops that poll other conditions
// must pair the ceiling with RequestAttention on those conditions' state
// changes; process exit always returns to the harness.
func (s *sched) SetSchedCeiling(ceil vclock.Time) {
	s.ceil = ceil
	s.ceilSet = true
}

// ClearSchedCeiling disables the scheduler fast path (the default).
func (s *sched) ClearSchedCeiling() { s.ceilSet = false }

// fastPath reports whether the harness's next Step, taken with the clock
// at t, would neither fire a timer nor stop for the ceiling or an
// attention request: a ceiling is set and t is below it, nothing has
// requested attention, and no timer is due at or before t.
func (s *sched) fastPath(t vclock.Time) bool {
	if !s.ceilSet || s.attn || !t.Before(s.ceil) {
		return false
	}
	next, ok := s.clock.NextAt()
	return !ok || next.After(t)
}

// canElide reports whether the running process may skip the
// end-of-quantum handoff: it is alone and the fast path is open now. The
// slow path's next Step would fire no timers and resume this same
// process — a pure channel round-trip the fast path replaces with one
// counter increment.
func (s *sched) canElide() bool {
	return s.readyCount() == 0 && s.fastPath(s.clock.Now())
}

// canElideSleep reports whether a solo sleeping process may advance the
// clock directly to wake instead of scheduling a wake event and parking:
// the fast path must be open at the wake instant itself, so the wake
// precedes the ceiling (or the slow path would abandon the sleeper at the
// boundary) and strictly precedes every queued event (an event at or
// before the wake instant would fire first and could change what the
// sleeper observes).
func (s *sched) canElideSleep(wake vclock.Time) bool {
	return s.readyCount() == 0 && s.fastPath(wake)
}

// handoffTarget returns the process the harness's next Step would resume
// when that Step would do nothing else, popping it; otherwise nil. Stale
// entries are skipped as Step skips them, but only when a live process
// follows: a ring of stale entries alone is left to the harness, whose
// Step would drain it and then advance the clock.
func (s *sched) handoffTarget() *Process {
	if !s.fastPath(s.clock.Now()) {
		return nil
	}
	for _, p := range s.ready[s.readyHead:] {
		if p.state == procReady {
			return s.popLive()
		}
	}
	return nil
}

// handoff gives up the CPU from the running process, which has already
// requeued or blocked itself: directly to the next ready process when the
// harness would only have resumed it, otherwise back to the harness. The
// caller then parks on its own resume channel.
func (s *sched) handoff() {
	if next := s.handoffTarget(); next != nil {
		s.dispatch(next)
		return
	}
	s.yield <- struct{}{}
}

// Step executes one scheduling quantum: first it fires every timer event
// that is already due (so a process that burned a long CPU slice cannot
// starve waiters whose deadlines passed meanwhile), then it resumes the
// next ready process — whichever kernel it lives on — until the CPU comes
// back to the harness, or, if none is ready, advances the virtual clock
// to the next timer event. It reports false when the simulation is fully
// idle (no ready processes and no pending events).
func (s *sched) Step() bool {
	s.attn = false
	for {
		next, ok := s.clock.NextAt()
		if !ok || next.After(s.clock.Now()) {
			break
		}
		s.clock.RunNext()
	}
	if p := s.popLive(); p != nil {
		s.dispatch(p)
		<-s.yield
		s.current = nil
		return true
	}
	return s.clock.RunNext()
}

// Run steps the simulation until it is fully idle or the virtual clock
// passes deadline, with the fast path open up to the deadline. It returns
// the number of Steps the harness took (quanta the fast path absorbed
// are not counted).
func (s *sched) Run(deadline vclock.Time) int {
	// Run's continue-condition is now <= deadline, so the fast-path
	// ceiling is one tick past it; the previous ceiling (if any) is
	// restored so nested harness loops keep their own bound.
	prevCeil, prevSet := s.ceil, s.ceilSet
	s.SetSchedCeiling(deadline + 1)
	defer func() {
		s.ceil, s.ceilSet = prevCeil, prevSet
	}()
	n := 0
	for {
		if s.clock.Now().After(deadline) {
			return n
		}
		// If nothing is ready and the next timer is beyond the
		// deadline, stop without firing it.
		if s.readyCount() == 0 {
			next, ok := s.clock.NextAt()
			if !ok || next.After(deadline) {
				return n
			}
		}
		if !s.Step() {
			return n
		}
		n++
	}
}

// RunFor is Run with a relative deadline.
func (s *sched) RunFor(d time.Duration) int {
	return s.Run(s.clock.Now().Add(d))
}

// Idle reports whether no process is ready and no timer events are pending.
func (s *sched) Idle() bool {
	if s.readyCount() > 0 {
		return false
	}
	_, ok := s.clock.NextAt()
	return !ok
}

// KillAll terminates every live process (used between fault-injection runs
// to tear the workload down, mirroring DTS "workload termination"), then
// steps until the terminations unwind. Termination runs in kernel order
// and PID order within a kernel — not process-map order — so the teardown
// sequence, and therefore the telemetry trace, is deterministic.
func (s *sched) KillAll() {
	for _, k := range s.kernels {
		for _, p := range k.Processes() {
			if p.state != procTerminated {
				p.Terminate(ExitTerminated)
			}
		}
	}
	for s.readyCount() > 0 {
		s.Step()
	}
}
