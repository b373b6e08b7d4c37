package ntsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ntdts/internal/telemetry"
	"ntdts/internal/vclock"
)

// The scheduler fast path (solo elision plus direct process-to-process
// handoff) must be unobservable: a randomized process mix run under
// Run(deadline) produces the same telemetry, exit codes, end times and
// final clock as the same mix driven by a bare Step loop with no ceiling,
// which takes every handoff through the harness.

// mixOp is one step of a generated worker script.
type mixOp struct {
	kind int
	arg  int
}

const (
	opYield = iota
	opSleep
	opCharge
	opSetEvent
	opWaitEvent
	opSpawn
	opTerminate
	opKinds
)

// mix is one seed's generated workload, independent of the kernels that
// run it, so the fast and slow arms execute identical scripts.
type mix struct {
	workers  [][]mixOp
	codes    []uint32
	pipe     bool // add a pipe ping-pong pair (server node 0, client last node)
	rounds   int
	attn     []time.Duration // harness timers that request attention
	deadline time.Duration
}

func genMix(seed int64) mix {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	m := mix{pipe: rng.Intn(2) == 0, rounds: 1 + rng.Intn(8)}
	if m.pipe {
		n -= 2
	}
	for i := 0; i < n; i++ {
		script := make([]mixOp, 3+rng.Intn(10))
		for j := range script {
			script[j] = mixOp{kind: rng.Intn(opKinds), arg: rng.Intn(50)}
		}
		m.workers = append(m.workers, script)
		m.codes = append(m.codes, uint32(rng.Intn(100)))
	}
	for i := rng.Intn(4); i > 0; i-- {
		m.attn = append(m.attn, time.Duration(rng.Intn(200))*time.Millisecond)
	}
	m.deadline = time.Duration(20+rng.Intn(400)) * time.Millisecond
	return m
}

// world is one arm's simulation of a mix.
type world struct {
	s       *sched
	kernels []*Kernel
	recs    []*telemetry.Recorder
}

// build attaches the mix to kernels: one standalone kernel, or the three
// nodes of a Machine (workers round-robin across nodes, the pipe server
// on the first node and its client on the last, so pipe wakes cross
// nodes). Every process starts at t=0 from the harness.
func (m mix) build(t *testing.T, nodes int) *world {
	w := &world{}
	if nodes == 1 {
		k := NewKernel()
		w.s, w.kernels = k.sched, []*Kernel{k}
	} else {
		mach := NewMachine()
		for i := 0; i < nodes; i++ {
			mach.AddKernel()
		}
		w.s, w.kernels = &mach.sched, mach.Kernels()
	}
	for _, k := range w.kernels {
		r := telemetry.NewRecorder(0)
		k.SetTelemetry(r)
		w.recs = append(w.recs, r)
	}
	events := []*Event{NewEvent("a", false, false), NewEvent("b", false, false)}
	var peers []*Process
	mark := func(p *Process, op string, arg int) { p.Syscall(op, p.Raw(uint64(arg))) }
	for _, k := range w.kernels {
		k.RegisterImage("child.exe", func(p *Process) uint32 {
			mark(p, "child", 0)
			p.ChargeTime(12 * time.Millisecond)
			p.Yield()
			p.SleepFor(3 * time.Millisecond)
			return 7
		})
	}
	for i, script := range m.workers {
		k := w.kernels[i%nodes]
		script, code := script, m.codes[i]
		image := fmt.Sprintf("w%d.exe", i)
		k.RegisterImage(image, func(p *Process) uint32 {
			for _, op := range script {
				mark(p, "op", op.kind)
				switch op.kind {
				case opYield:
					p.Yield()
				case opSleep:
					p.SleepFor(time.Duration(op.arg) * time.Millisecond)
				case opCharge:
					p.ChargeTime(time.Duration(op.arg)*time.Millisecond + time.Millisecond)
				case opSetEvent:
					events[op.arg%len(events)].Set()
				case opWaitEvent:
					WaitOne(p, events[op.arg%len(events)], uint32(op.arg))
				case opSpawn:
					if _, err := p.k.Spawn("child.exe", "", p.ID); err != nil {
						t.Errorf("Spawn from process: %v", err)
					}
				case opTerminate:
					if peer := peers[op.arg%len(peers)]; peer != p {
						peer.Terminate(uint32(0x100 + op.arg))
					}
				}
			}
			return code
		})
		peers = append(peers, mustSpawn(t, k, image, ""))
	}
	if m.pipe {
		const path = `\\.\pipe\mix`
		srvK, cliK := w.kernels[0], w.kernels[nodes-1]
		srvK.RegisterImage("srv.exe", func(p *Process) uint32 {
			ps, errno := srvK.CreatePipeServer(path)
			if errno != ErrSuccess || ps.Listen(p) != ErrSuccess {
				return 1
			}
			buf := make([]byte, 8)
			for {
				n, errno := ps.Read(p, buf)
				if errno != ErrSuccess {
					return 2
				}
				mark(p, "srv", n)
				ps.Write(buf[:n])
			}
		})
		cliK.RegisterImage("cli.exe", func(p *Process) uint32 {
			var pc *PipeClient
			for pc == nil {
				var errno Errno
				if pc, errno = srvK.ConnectPipeClient(path); errno != ErrSuccess {
					p.SleepFor(time.Millisecond)
				}
			}
			buf := make([]byte, 8)
			for r := 0; r < m.rounds; r++ {
				pc.Write([]byte{byte(r)})
				if _, errno := pc.Read(p, buf); errno != ErrSuccess {
					return 3
				}
				mark(p, "cli", r)
			}
			pc.CloseClient()
			return 0
		})
		peers = append(peers, mustSpawn(t, srvK, "srv.exe", ""), mustSpawn(t, cliK, "cli.exe", ""))
	}
	for _, at := range m.attn {
		k := w.kernels[len(w.kernels)-1]
		w.s.clock.ScheduleAt(vclock.Time(at), k.RequestAttention)
	}
	return w
}

// stepTo is Run's loop without the ceiling: every quantum goes through
// the harness.
func stepTo(s *sched, deadline vclock.Time) {
	for !s.Now().After(deadline) {
		if s.readyCount() == 0 {
			if next, ok := s.clock.NextAt(); !ok || next.After(deadline) {
				return
			}
		}
		if !s.Step() {
			return
		}
	}
}

// outcome renders everything the arms must agree on.
func (w *world) outcome(t *testing.T, endClock vclock.Time) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "clock %d\n", endClock)
	for i, k := range w.kernels {
		checkNoPanics(t, k)
		for _, p := range k.Processes() {
			fmt.Fprintf(&b, "node %d pid %d %s code 0x%X end %d\n", i, p.ID, p.Image, p.ExitCode(), p.EndTime())
		}
	}
	set := telemetry.NewSet(w.recs...)
	if err := set.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(set.MetricsText())
	return b.String()
}

func TestFastPathMatchesStepLoop(t *testing.T) {
	var steps, quanta int64
	for _, nodes := range []int{1, 3} {
		for seed := int64(1); seed <= 250; seed++ {
			m := genMix(seed)
			deadline := vclock.Time(m.deadline)

			fast := m.build(t, nodes)
			steps += int64(fast.s.Run(deadline))
			fastEnd := fast.s.Now()
			fast.s.KillAll()
			for _, r := range fast.recs {
				quanta += r.Counter(telemetry.CtrSchedQuanta)
			}

			slow := m.build(t, nodes)
			stepTo(slow.s, deadline)
			slowEnd := slow.s.Now()
			slow.s.KillAll()

			got, want := fast.outcome(t, fastEnd), slow.outcome(t, slowEnd)
			if got != want {
				t.Fatalf("nodes=%d seed=%d: fast path diverges from the Step loop\nfast:\n%s\nslow:\n%s", nodes, seed, got, want)
			}
		}
	}
	// The comparison is only meaningful if the fast path actually
	// absorbed handoffs.
	if steps*2 > quanta {
		t.Fatalf("harness took %d steps for %d quanta; the fast path barely engaged", steps, quanta)
	}
}

// pingPong registers two processes that alternate rounds times on a pair
// of auto-reset events, blocking on every switch.
func pingPong(k *Kernel, rounds int) {
	ping, pong := NewEvent("ping", false, false), NewEvent("pong", false, false)
	k.RegisterImage("ping.exe", func(p *Process) uint32 {
		for i := 0; i < rounds; i++ {
			ping.Set()
			WaitOne(p, pong, Infinite)
		}
		return 0
	})
	k.RegisterImage("pong.exe", func(p *Process) uint32 {
		for i := 0; i < rounds; i++ {
			WaitOne(p, ping, Infinite)
			pong.Set()
		}
		return 0
	})
	k.Spawn("ping.exe", "", 0)
	k.Spawn("pong.exe", "", 0)
}

// TestDirectHandoffSkipsHarness: under Run, blocking switches between two
// processes go straight from one to the other; the harness only sees the
// first resume and each exit, while the quanta counter still records
// every switch.
func TestDirectHandoffSkipsHarness(t *testing.T) {
	k := NewKernel()
	rec := telemetry.NewRecorder(0)
	k.SetTelemetry(rec)
	pingPong(k, 100)
	steps := k.RunFor(time.Hour)
	if q := rec.Counter(telemetry.CtrSchedQuanta); q < 200 || steps > 3 {
		t.Fatalf("%d harness steps for %d quanta, want every switch handed off directly", steps, q)
	}
	for _, p := range k.Processes() {
		if !p.Terminated() {
			t.Fatalf("pid %d still live", p.ID)
		}
	}
	checkNoPanics(t, k)
}

// BenchmarkSchedHandoff measures one process-to-process switch: a blocking
// wait that hands the CPU to a ready peer. The run arm switches directly
// between process goroutines; the step arm routes every switch through
// the harness goroutine.
func BenchmarkSchedHandoff(b *testing.B) {
	for _, arm := range []string{"run", "step"} {
		b.Run(arm, func(b *testing.B) {
			k := NewKernel()
			pingPong(k, b.N)
			b.ResetTimer()
			if arm == "run" {
				k.RunFor(time.Hour)
			} else {
				for k.Step() {
				}
			}
			b.StopTimer()
			// Each round is two switches.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
		})
	}
}
