package ntsim

// Machine advances several kernels — the nodes of a simulated cluster —
// on one scheduler: one shared virtual clock and one global ready ring,
// so every node's processes interleave in strict FIFO wake order and an
// N-node run is as deterministic as a single-kernel run. Step, Run,
// RunFor, Idle, KillAll and the fast-path controls are the scheduler's
// own, the same code a standalone kernel runs. Per-node state (process
// tables, VFS, pipe namespaces, named objects, telemetry) stays fully
// isolated; only time and the CPU are shared.
type Machine struct {
	sched
}

// NewMachine returns an empty machine with a fresh shared clock.
func NewMachine() *Machine {
	return &Machine{*newSched()}
}

// Kernels returns the machine's nodes in attachment order.
func (m *Machine) Kernels() []*Kernel { return m.kernels }

// AddKernel attaches a fresh kernel as the machine's next node. The
// kernel shares the machine's scheduler, so driving it (Step, Run, Idle,
// KillAll) drives the whole machine. Machine kernels are never returned
// to the fork pool: pooled release resets the clock, which a shared clock
// cannot survive.
func (m *Machine) AddKernel() *Kernel {
	return newKernel(&m.sched)
}
