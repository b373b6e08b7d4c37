package apache

import (
	"bytes"
	"testing"
	"time"

	"ntdts/internal/apps/common"
	"ntdts/internal/eventlog"
	"ntdts/internal/httpwire"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim"
	"ntdts/internal/scm"
)

// rig boots an Apache installation under the SCM.
type rig struct {
	k   *ntsim.Kernel
	mgr *scm.Manager
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := ntsim.NewKernel()
	mgr := scm.New(k, eventlog.New())
	cfg := DefaultConfig()
	Register(k, cfg)
	k.VFS().WriteFile(cfg.DocRoot+`\index.html`, []byte("<html>static</html>"))
	if err := mgr.CreateService(scm.Config{Name: ServiceName, Image: Image, CmdLine: Image, WaitHint: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.StartService(ServiceName); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, mgr: mgr}
}

func (r *rig) run(t *testing.T, d time.Duration) {
	t.Helper()
	r.k.RunFor(d)
	if pan := r.k.Panics(); len(pan) != 0 {
		t.Fatalf("panics: %v", pan)
	}
}

// fetch issues one HTTP request from a synthetic client process.
func (r *rig) fetch(t *testing.T, path string) (resp httpwire.Response, ok bool) {
	t.Helper()
	done := false
	r.k.RegisterImage("fetch.exe", func(p *ntsim.Process) uint32 {
		pc, errno := r.k.ConnectPipeClient(common.HTTPPipe)
		if errno != ntsim.ErrSuccess {
			done = true
			return 1
		}
		defer pc.CloseClient()
		conn := &testConn{p: p, pc: pc}
		if !httpwire.WriteRequest(conn, httpwire.Request{Method: "GET", Path: path}) {
			done = true
			return 1
		}
		resp, ok = httpwire.ReadResponse(conn, nil)
		done = true
		return 0
	})
	if _, err := r.k.Spawn("fetch.exe", "fetch.exe", 0); err != nil {
		t.Fatal(err)
	}
	deadline := r.k.Now().Add(30 * time.Second)
	for !done && r.k.Now().Before(deadline) {
		if !r.k.Step() {
			break
		}
	}
	return resp, ok
}

type testConn struct {
	p  *ntsim.Process
	pc *ntsim.PipeClient
}

func (c *testConn) Read(buf []byte) (int, bool) {
	n, errno := c.pc.ReadTimeout(c.p, buf, 10*time.Second)
	return n, errno == ntsim.ErrSuccess
}

func (c *testConn) Write(data []byte) bool {
	_, errno := c.pc.Write(data)
	return errno == ntsim.ErrSuccess
}

// processesOf lists live PIDs running the Apache image.
func (r *rig) processesOf(image string) []ntsim.PID {
	var out []ntsim.PID
	for pid := ntsim.PID(1); ; pid++ {
		p := r.k.Process(pid)
		if p == nil {
			return out
		}
		if p.Image == image && !p.Terminated() {
			out = append(out, pid)
		}
	}
}

func TestMasterSpawnsExactlyOneWorker(t *testing.T) {
	r := newRig(t)
	r.run(t, 5*time.Second)
	procs := r.processesOf(Image)
	if len(procs) != 2 {
		t.Fatalf("%d apache processes, want 2 (master + one worker)", len(procs))
	}
	st, _, _ := r.mgr.QueryServiceStatus(ServiceName)
	if st != scm.Running {
		t.Fatalf("service %v, want RUNNING", st)
	}
}

func TestServesStaticDocument(t *testing.T) {
	r := newRig(t)
	r.run(t, 5*time.Second)
	resp, ok := r.fetch(t, "/index.html")
	if !ok || resp.Status != 200 {
		t.Fatalf("static fetch: ok=%v status=%d", ok, resp.Status)
	}
	if string(resp.Body) != "<html>static</html>" {
		t.Fatalf("static body %q", resp.Body)
	}
}

func TestServesCGIDocument(t *testing.T) {
	r := newRig(t)
	r.run(t, 5*time.Second)
	resp, ok := r.fetch(t, "/cgi-bin/info")
	if !ok || resp.Status != 200 {
		t.Fatalf("CGI fetch: ok=%v status=%d", ok, resp.Status)
	}
	if !bytes.Equal(resp.Body, CGIBody()) {
		t.Fatalf("CGI body mismatch: %d bytes", len(resp.Body))
	}
	if len(CGIBody()) != 1024 {
		t.Fatalf("CGI document is %d bytes, want 1024 (the paper's 1 kB)", len(CGIBody()))
	}
}

func TestUnknownPathIs404(t *testing.T) {
	r := newRig(t)
	r.run(t, 5*time.Second)
	resp, ok := r.fetch(t, "/missing.html")
	if !ok || resp.Status != 404 {
		t.Fatalf("missing fetch: ok=%v status=%d", ok, resp.Status)
	}
}

func TestNonGETRejected(t *testing.T) {
	r := newRig(t)
	r.run(t, 5*time.Second)
	done := false
	var status int
	r.k.RegisterImage("post.exe", func(p *ntsim.Process) uint32 {
		pc, errno := r.k.ConnectPipeClient(common.HTTPPipe)
		if errno != ntsim.ErrSuccess {
			done = true
			return 1
		}
		defer pc.CloseClient()
		conn := &testConn{p: p, pc: pc}
		httpwire.WriteRequest(conn, httpwire.Request{Method: "POST", Path: "/index.html"})
		resp, ok := httpwire.ReadResponse(conn, nil)
		if ok {
			status = resp.Status
		}
		done = true
		return 0
	})
	r.k.Spawn("post.exe", "post.exe", 0)
	deadline := r.k.Now().Add(30 * time.Second)
	for !done && r.k.Now().Before(deadline) {
		r.k.Step()
	}
	if status != 400 {
		t.Fatalf("POST status %d, want 400", status)
	}
}

func TestMasterRespawnsDeadWorker(t *testing.T) {
	// The architectural feature of §4.1: the master detects worker death
	// and respawns it without any middleware.
	r := newRig(t)
	r.run(t, 5*time.Second)
	procs := r.processesOf(Image)
	if len(procs) != 2 {
		t.Fatalf("%d processes", len(procs))
	}
	worker := r.k.Process(procs[1])
	if worker.Parent == 0 {
		t.Fatal("second process is not the worker")
	}
	worker.Terminate(ntsim.ExitAccessViolation)
	r.run(t, 5*time.Second)
	after := r.processesOf(Image)
	if len(after) != 2 {
		t.Fatalf("%d processes after worker death, want 2 (respawned)", len(after))
	}
	// And the respawned worker serves.
	resp, ok := r.fetch(t, "/index.html")
	if !ok || resp.Status != 200 {
		t.Fatalf("fetch after respawn: ok=%v status=%d", ok, resp.Status)
	}
}

func TestMasterDeathOrphansWorkingWorker(t *testing.T) {
	// Master death does not take the worker down: requests keep being
	// served (why many Apache1 faults are benign in the paper's data).
	r := newRig(t)
	r.run(t, 5*time.Second)
	procs := r.processesOf(Image)
	master := r.k.Process(procs[0])
	if master.Parent != 0 {
		t.Fatal("first process is not the master")
	}
	master.Terminate(ntsim.ExitAccessViolation)
	r.run(t, 2*time.Second)
	resp, ok := r.fetch(t, "/index.html")
	if !ok || resp.Status != 200 {
		t.Fatalf("fetch after master death: ok=%v status=%d", ok, resp.Status)
	}
}

func TestServesSequentialConnections(t *testing.T) {
	r := newRig(t)
	r.run(t, 5*time.Second)
	for i := 0; i < 3; i++ {
		resp, ok := r.fetch(t, "/index.html")
		if !ok || resp.Status != 200 {
			t.Fatalf("fetch %d: ok=%v status=%d", i, ok, resp.Status)
		}
	}
}

func TestCorruptedCGISpawnDegradesGracefully(t *testing.T) {
	// A corrupted CreateProcessA in the worker's CGI path must degrade to
	// an HTTP error (or a benign fallback), never a wedged worker: the
	// next request is served normally.
	k := ntsim.NewKernel()
	mgr := scm.New(k, eventlog.New())
	cfg := DefaultConfig()
	Register(k, cfg)
	k.VFS().WriteFile(cfg.DocRoot+`\index.html`, []byte("<html>static</html>"))
	// Target the worker's CreateProcessA (its first invocation is the CGI
	// helper spawn) with a zero fault on the application-name pointer:
	// CreateProcessA falls back to the command line and still works, or
	// fails cleanly — both are acceptable; what is not acceptable is a
	// crash of the worker or a wedge.
	k.SetInterceptor(inject.New(k, inject.ChildProcessOf(Image), &inject.FaultSpec{
		Function: "CreateProcessA", Param: 1, Invocation: 1, Type: inject.ZeroBits,
	}))
	mgr.CreateService(scm.Config{Name: ServiceName, Image: Image, CmdLine: Image, WaitHint: 30 * time.Second})
	mgr.StartService(ServiceName)
	r := &rig{k: k, mgr: mgr}
	r.run(t, 5*time.Second)

	if resp, ok := r.fetch(t, "/cgi-bin/info"); !ok || (resp.Status != 200 && resp.Status != 500) {
		t.Fatalf("CGI under corrupted spawn: ok=%v status=%d", ok, resp.Status)
	}
	// The worker survives and still serves static content.
	resp, ok := r.fetch(t, "/index.html")
	if !ok || resp.Status != 200 {
		t.Fatalf("static after corrupted CGI spawn: ok=%v status=%d", ok, resp.Status)
	}
}
