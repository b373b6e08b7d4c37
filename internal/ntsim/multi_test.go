package ntsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// runMachine steps the machine until fully idle, with a safety cap.
func runMachine(t *testing.T, m *Machine) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if !m.Step() {
			return
		}
	}
	t.Fatal("machine did not go idle")
}

// TestMachineGlobalFIFO: processes on different kernels share one
// machine-wide ready ring, so they interleave in strict spawn/requeue
// order — exactly one process runs at any instant machine-wide.
func TestMachineGlobalFIFO(t *testing.T) {
	m := NewMachine()
	k1, k2 := m.AddKernel(), m.AddKernel()
	var order []string
	worker := func(name string) func(*Process) uint32 {
		return func(p *Process) uint32 {
			for i := 0; i < 3; i++ {
				order = append(order, fmt.Sprintf("%s%d", name, i))
				p.Yield()
			}
			return 0
		}
	}
	k1.RegisterImage("a.exe", worker("a"))
	k2.RegisterImage("b.exe", worker("b"))
	mustSpawn(t, k1, "a.exe", "")
	mustSpawn(t, k2, "b.exe", "")
	runMachine(t, m)
	want := []string{"a0", "b0", "a1", "b1", "a2", "b2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("interleaving %v, want %v", order, want)
	}
	checkNoPanics(t, k1)
	checkNoPanics(t, k2)
}

// TestMachineSharedClock: kernels added to one machine run on a single
// clock — a sleep on one kernel advances time for all of them.
func TestMachineSharedClock(t *testing.T) {
	m := NewMachine()
	k1, k2 := m.AddKernel(), m.AddKernel()
	if k1.Clock() != k2.Clock() || k1.Clock() != m.Clock() {
		t.Fatal("machine kernels must share one clock")
	}
	var k2Saw time.Duration
	k1.RegisterImage("sleeper.exe", func(p *Process) uint32 {
		p.SleepFor(5 * time.Second)
		return 0
	})
	k2.RegisterImage("watcher.exe", func(p *Process) uint32 {
		p.SleepFor(6 * time.Second)
		k2Saw = time.Duration(k2.Now())
		return 0
	})
	mustSpawn(t, k1, "sleeper.exe", "")
	mustSpawn(t, k2, "watcher.exe", "")
	runMachine(t, m)
	if k2Saw < 6*time.Second {
		t.Fatalf("kernel 2 saw %v, want >= 6s on the shared clock", k2Saw)
	}
	if k1.Now() != k2.Now() {
		t.Fatalf("clocks diverged: %v vs %v", k1.Now(), k2.Now())
	}
}

// TestMachineCrossKernelPipeWake: a process on one kernel blocked reading
// a pipe served on another kernel must wake on its own kernel's ring when
// the peer writes — the cross-node client/server path of a cluster run.
func TestMachineCrossKernelPipeWake(t *testing.T) {
	m := NewMachine()
	serverK, clientK := m.AddKernel(), m.AddKernel()
	const path = `\\.\pipe\xnode`
	var got string
	serverK.RegisterImage("server.exe", func(p *Process) uint32 {
		ps, errno := serverK.CreatePipeServer(path)
		if errno != ErrSuccess {
			t.Errorf("CreatePipeServer: %v", errno)
			return 1
		}
		if errno := ps.Listen(p); errno != ErrSuccess {
			t.Errorf("Listen: %v", errno)
			return 1
		}
		// The client is already blocked in Read by now; this write must
		// wake it on the client kernel.
		p.SleepFor(time.Second)
		if _, errno := ps.Write([]byte("ping")); errno != ErrSuccess {
			t.Errorf("server Write: %v", errno)
			return 1
		}
		return 0
	})
	clientK.RegisterImage("client.exe", func(p *Process) uint32 {
		p.SleepFor(100 * time.Millisecond) // let the server listen first
		pc, errno := serverK.ConnectPipeClient(path)
		if errno != ErrSuccess {
			t.Errorf("ConnectPipeClient: %v", errno)
			return 1
		}
		buf := make([]byte, 16)
		n, errno := pc.Read(p, buf) // blocks until the server's write
		if errno != ErrSuccess {
			t.Errorf("client Read: %v", errno)
			return 1
		}
		got = string(buf[:n])
		return 0
	})
	mustSpawn(t, serverK, "server.exe", "")
	mustSpawn(t, clientK, "client.exe", "")
	runMachine(t, m)
	if got != "ping" {
		t.Fatalf("cross-kernel read got %q, want %q", got, "ping")
	}
	checkNoPanics(t, serverK)
	checkNoPanics(t, clientK)
}

// TestForkIntoMachine: every node of a machine can fork from one boot
// prefix; the first fork positions the shared clock at the snapshot
// instant and the forks behave like independently booted kernels.
func TestForkIntoMachine(t *testing.T) {
	donor := NewKernel()
	donor.RegisterImage("svc.exe", func(p *Process) uint32 {
		p.SleepFor(time.Second)
		return 0
	})
	// A snapshot captures the pre-spawn instant: images registered, clock
	// advanced through boot, no processes live.
	donor.Clock().Advance(time.Second)
	snap, err := donor.SnapshotPrefix()
	if err != nil {
		t.Fatal(err)
	}

	m := NewMachine()
	k1 := snap.ForkInto(m)
	k2 := snap.ForkInto(m)
	if m.Now() != donor.Now() {
		t.Fatalf("machine clock at %v, want snapshot instant %v", m.Now(), donor.Now())
	}
	ran := 0
	for _, k := range []*Kernel{k1, k2} {
		if _, err := k.Spawn("svc.exe", "", 0); err != nil {
			t.Fatalf("fork lost the registered image: %v", err)
		}
		ran++
	}
	runMachine(t, m)
	if ran != 2 {
		t.Fatalf("spawned %d, want 2", ran)
	}
	for i, k := range []*Kernel{k1, k2} {
		for _, p := range k.Processes() {
			if !p.Terminated() {
				t.Fatalf("fork %d process %d never finished", i, p.ID)
			}
		}
		checkNoPanics(t, k)
	}
}

// TestMachineKillAll terminates every process on every kernel, including
// parked sleepers, and drains the ready ring.
func TestMachineKillAll(t *testing.T) {
	m := NewMachine()
	k1, k2 := m.AddKernel(), m.AddKernel()
	for _, k := range []*Kernel{k1, k2} {
		k.RegisterImage("sleeper.exe", func(p *Process) uint32 {
			p.SleepFor(24 * time.Hour)
			return 0
		})
		mustSpawn(t, k, "sleeper.exe", "")
	}
	// Let both processes park in their sleeps.
	for i := 0; i < 4 && m.Step(); i++ {
	}
	m.KillAll()
	for i, k := range []*Kernel{k1, k2} {
		for _, p := range k.Processes() {
			if !p.Terminated() {
				t.Fatalf("kernel %d process %d survived KillAll", i, p.ID)
			}
		}
	}
}

// TestMachineNodeDrivesMachine: a node shares the machine's scheduler, so
// its Idle, Run and RunFor see the machine-wide ready ring. (A node once
// read a private ring that was always empty: Idle reported true with a
// process ready and RunFor ran nothing.)
func TestMachineNodeDrivesMachine(t *testing.T) {
	m := NewMachine()
	k1, k2 := m.AddKernel(), m.AddKernel()
	k1.RegisterImage("a.exe", func(p *Process) uint32 {
		p.SleepFor(time.Millisecond)
		return 0
	})
	p := mustSpawn(t, k1, "a.exe", "")
	if k1.Idle() || k2.Idle() || m.Idle() {
		t.Fatalf("Idle with a process ready: k1=%v k2=%v m=%v", k1.Idle(), k2.Idle(), m.Idle())
	}
	if n := k2.RunFor(time.Second); n == 0 {
		t.Fatal("RunFor on a node ran no quanta")
	}
	if !p.Terminated() || !k1.Idle() || !m.Idle() {
		t.Fatalf("terminated=%v k1.Idle=%v m.Idle=%v after RunFor", p.Terminated(), k1.Idle(), m.Idle())
	}
	checkNoPanics(t, k1)
}
