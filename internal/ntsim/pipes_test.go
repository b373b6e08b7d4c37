package ntsim

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

const testPipePath = `\\.\pipe\svc`

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestPipeEcho(t *testing.T) {
	k := NewKernel()
	var got []byte
	k.RegisterImage("server.exe", func(p *Process) uint32 {
		ps, errno := k.CreatePipeServer(testPipePath)
		if errno != ErrSuccess {
			t.Errorf("CreatePipeServer: %v", errno)
			return 1
		}
		if errno := ps.Listen(p); errno != ErrSuccess {
			t.Errorf("Listen: %v", errno)
			return 1
		}
		buf := make([]byte, 64)
		n, errno := ps.Read(p, buf)
		if errno != ErrSuccess {
			t.Errorf("server Read: %v", errno)
			return 1
		}
		if _, errno := ps.Write(bytes.ToUpper(buf[:n])); errno != ErrSuccess {
			t.Errorf("server Write: %v", errno)
			return 1
		}
		// Disconnect discards unread bytes (Win32 semantics): drain first.
		if errno := ps.Flush(p); errno != ErrSuccess {
			t.Errorf("server Flush: %v", errno)
		}
		ps.Disconnect()
		return 0
	})
	k.RegisterImage("client.exe", func(p *Process) uint32 {
		p.SleepFor(100 * time.Millisecond) // let the server listen first
		pc, errno := k.ConnectPipeClient(testPipePath)
		if errno != ErrSuccess {
			t.Errorf("ConnectPipeClient: %v", errno)
			return 1
		}
		if _, errno := pc.Write([]byte("hello")); errno != ErrSuccess {
			t.Errorf("client Write: %v", errno)
			return 1
		}
		buf := make([]byte, 64)
		n, errno := pc.Read(p, buf)
		if errno != ErrSuccess {
			t.Errorf("client Read: %v", errno)
			return 1
		}
		got = append([]byte(nil), buf[:n]...)
		return 0
	})
	mustSpawn(t, k, "server.exe", "")
	mustSpawn(t, k, "client.exe", "")
	runAll(t, k)
	if string(got) != "HELLO" {
		t.Fatalf("echo got %q", got)
	}
	checkNoPanics(t, k)
}

func TestPipeClientBeforeServerListen(t *testing.T) {
	// A client may connect to a created instance before the server calls
	// ConnectNamedPipe; the server's Listen then returns ERROR_PIPE_CONNECTED.
	k := NewKernel()
	var listenErr Errno
	k.RegisterImage("server.exe", func(p *Process) uint32 {
		ps, _ := k.CreatePipeServer(testPipePath)
		p.SleepFor(time.Second) // client connects during this window
		listenErr = ps.Listen(p)
		return 0
	})
	k.RegisterImage("client.exe", func(p *Process) uint32 {
		p.SleepFor(100 * time.Millisecond)
		if _, errno := k.ConnectPipeClient(testPipePath); errno != ErrSuccess {
			t.Errorf("connect: %v", errno)
		}
		return 0
	})
	mustSpawn(t, k, "server.exe", "")
	mustSpawn(t, k, "client.exe", "")
	runAll(t, k)
	if listenErr != ErrPipeConnected {
		t.Fatalf("Listen = %v, want ERROR_PIPE_CONNECTED", listenErr)
	}
	checkNoPanics(t, k)
}

func TestPipeConnectNoInstance(t *testing.T) {
	k := NewKernel()
	var errno Errno
	k.RegisterImage("client.exe", func(p *Process) uint32 {
		_, errno = k.ConnectPipeClient(`\\.\pipe\nothing`)
		return 0
	})
	mustSpawn(t, k, "client.exe", "")
	runAll(t, k)
	if errno != ErrFileNotFound {
		t.Fatalf("connect to missing pipe: %v", errno)
	}
}

func TestPipeBusyWhenAllInstancesConnected(t *testing.T) {
	k := NewKernel()
	var second Errno
	k.RegisterImage("server.exe", func(p *Process) uint32 {
		ps, _ := k.CreatePipeServer(testPipePath)
		ps.Listen(p)
		p.SleepFor(time.Hour) // hold the only instance
		return 0
	})
	k.RegisterImage("clients.exe", func(p *Process) uint32 {
		p.SleepFor(100 * time.Millisecond)
		if _, errno := k.ConnectPipeClient(testPipePath); errno != ErrSuccess {
			t.Errorf("first connect: %v", errno)
		}
		_, second = k.ConnectPipeClient(testPipePath)
		return 0
	})
	srv := mustSpawn(t, k, "server.exe", "")
	mustSpawn(t, k, "clients.exe", "")
	k.RunFor(2 * time.Second)
	if second != ErrPipeBusy {
		t.Fatalf("second connect: %v, want ERROR_PIPE_BUSY", second)
	}
	srv.Terminate(ExitTerminated)
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestPipeServerDeathBreaksClientRead(t *testing.T) {
	k := NewKernel()
	var readErr Errno
	k.RegisterImage("server.exe", func(p *Process) uint32 {
		ps, _ := k.CreatePipeServer(testPipePath)
		p.NewHandle(ps) // handle cleanup on death must break the pipe
		ps.Listen(p)
		p.SleepFor(time.Second)
		p.RaiseAccessViolation() // server crashes mid-conversation
		return 0
	})
	k.RegisterImage("client.exe", func(p *Process) uint32 {
		p.SleepFor(100 * time.Millisecond)
		pc, errno := k.ConnectPipeClient(testPipePath)
		if errno != ErrSuccess {
			t.Errorf("connect: %v", errno)
			return 1
		}
		buf := make([]byte, 16)
		_, readErr = pc.Read(p, buf)
		return 0
	})
	mustSpawn(t, k, "server.exe", "")
	mustSpawn(t, k, "client.exe", "")
	runAll(t, k)
	if readErr != ErrBrokenPipe {
		t.Fatalf("client read after server death: %v, want ERROR_BROKEN_PIPE", readErr)
	}
	checkNoPanics(t, k)
}

func TestPipeClientCloseGivesServerEOFAfterDrain(t *testing.T) {
	k := NewKernel()
	var first, second Errno
	var data []byte
	k.RegisterImage("server.exe", func(p *Process) uint32 {
		ps, _ := k.CreatePipeServer(testPipePath)
		ps.Listen(p)
		p.SleepFor(2 * time.Second) // let client write and close
		buf := make([]byte, 16)
		var n int
		n, first = ps.Read(p, buf)
		data = append([]byte(nil), buf[:n]...)
		_, second = ps.Read(p, buf)
		return 0
	})
	k.RegisterImage("client.exe", func(p *Process) uint32 {
		p.SleepFor(100 * time.Millisecond)
		pc, _ := k.ConnectPipeClient(testPipePath)
		pc.Write([]byte("bye"))
		pc.closeClient()
		return 0
	})
	mustSpawn(t, k, "server.exe", "")
	mustSpawn(t, k, "client.exe", "")
	runAll(t, k)
	if first != ErrSuccess || string(data) != "bye" {
		t.Fatalf("drain read: %v %q", first, data)
	}
	if second != ErrBrokenPipe {
		t.Fatalf("post-drain read: %v, want ERROR_BROKEN_PIPE", second)
	}
	checkNoPanics(t, k)
}

func TestPipeDisconnectAndReaccept(t *testing.T) {
	k := NewKernel()
	served := 0
	k.RegisterImage("server.exe", func(p *Process) uint32 {
		ps, _ := k.CreatePipeServer(testPipePath)
		for i := 0; i < 2; i++ {
			if errno := ps.Listen(p); errno != ErrSuccess && errno != ErrPipeConnected {
				t.Errorf("listen %d: %v", i, errno)
				return 1
			}
			buf := make([]byte, 8)
			if _, errno := ps.Read(p, buf); errno != ErrSuccess {
				t.Errorf("read %d: %v", i, errno)
				return 1
			}
			served++
			ps.Disconnect()
		}
		return 0
	})
	k.RegisterImage("client.exe", func(p *Process) uint32 {
		pc, errno := k.ConnectPipeClient(testPipePath)
		if errno != ErrSuccess {
			t.Errorf("connect: %v", errno)
			return 1
		}
		pc.Write([]byte("x"))
		p.SleepFor(500 * time.Millisecond)
		return 0
	})
	mustSpawn(t, k, "server.exe", "")
	c1 := mustSpawn(t, k, "client.exe", "")
	k.RunFor(time.Second)
	if c1.ExitCode() != 0 {
		t.Fatalf("client1 exit %d", c1.ExitCode())
	}
	mustSpawn(t, k, "client.exe", "")
	runAll(t, k)
	if served != 2 {
		t.Fatalf("served %d clients, want 2", served)
	}
	checkNoPanics(t, k)
}

// TestPipeReconnectReusesBuffers drives a serve-disconnect-reconnect loop
// of 115 KB replies on one instance and checks that, after a warm-up
// connection, a round allocates nothing near the reply's size: a broken
// connection's byte queues must carry over to the next one.
func TestPipeReconnectReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	// sync.Pool caches per P, and the server puts the queues back from
	// one goroutine while the client's connect takes them from another;
	// one P keeps them from being missed on the other P's cache.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 20
	reply := bytes.Repeat([]byte("0123456789abcdef"), 115*1024/16)
	k := NewKernel()
	k.RegisterImage("server.exe", func(p *Process) uint32 {
		ps, _ := k.CreatePipeServer(testPipePath)
		for i := 0; i <= rounds; i++ {
			if errno := ps.Listen(p); errno != ErrSuccess && errno != ErrPipeConnected {
				t.Errorf("listen %d: %v", i, errno)
				return 1
			}
			ps.Write(reply)
			if errno := ps.Flush(p); errno != ErrSuccess {
				t.Errorf("flush %d: %v", i, errno)
				return 1
			}
			ps.Disconnect()
		}
		return 0
	})
	var ms runtime.MemStats
	var start [rounds + 2]uint64
	k.RegisterImage("client.exe", func(p *Process) uint32 {
		buf := make([]byte, len(reply))
		for i := 0; i <= rounds; i++ {
			runtime.ReadMemStats(&ms)
			start[i] = ms.TotalAlloc
			pc, errno := k.ConnectPipeClient(testPipePath)
			for errno == ErrPipeBusy {
				p.SleepFor(time.Millisecond)
				pc, errno = k.ConnectPipeClient(testPipePath)
			}
			if errno != ErrSuccess {
				t.Errorf("connect %d: %v", i, errno)
				return 1
			}
			for got := 0; got < len(buf); {
				n, errno := pc.Read(p, buf[got:])
				if errno != ErrSuccess {
					t.Errorf("read %d at %d: %v", i, got, errno)
					return 1
				}
				got += n
			}
			pc.CloseClient()
		}
		runtime.ReadMemStats(&ms)
		start[rounds+1] = ms.TotalAlloc
		return 0
	})
	runtime.GC() // settle the heap so no GC empties the pool mid-loop
	mustSpawn(t, k, "server.exe", "")
	mustSpawn(t, k, "client.exe", "")
	runAll(t, k)
	checkNoPanics(t, k)
	for i := 1; i <= rounds; i++ {
		if d := start[i+1] - start[i]; d >= 4<<10 {
			t.Errorf("round %d allocated %d bytes, want < 4096", i, d)
		}
	}
}

func TestPipeAvailable(t *testing.T) {
	k := NewKernel()
	k.RegisterImage("probe.exe", func(p *Process) uint32 {
		if _, errno := k.PipeAvailable(`\\.\pipe\none`); errno != ErrFileNotFound {
			t.Errorf("missing pipe: %v", errno)
		}
		ps, _ := k.CreatePipeServer(testPipePath)
		if ok, _ := k.PipeAvailable(testPipePath); !ok {
			t.Error("fresh instance not available")
		}
		_ = ps.acceptClient()
		if ok, _ := k.PipeAvailable(testPipePath); ok {
			t.Error("connected instance reported available")
		}
		return 0
	})
	mustSpawn(t, k, "probe.exe", "")
	runAll(t, k)
	checkNoPanics(t, k)
}

func TestPipeNameValidation(t *testing.T) {
	k := NewKernel()
	if _, errno := k.CreatePipeServer(`C:\notapipe`); errno != ErrInvalidName {
		t.Fatalf("bad name: %v", errno)
	}
	if _, errno := k.CreatePipeServer(`\\.\pipe\`); errno != ErrInvalidName {
		t.Fatalf("empty name: %v", errno)
	}
	if !IsPipePath(`\\.\PIPE\Upper`) {
		t.Fatal("IsPipePath should be case-insensitive")
	}
	if IsPipePath(`C:\file.txt`) {
		t.Fatal("IsPipePath matched a file path")
	}
}
