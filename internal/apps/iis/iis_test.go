package iis

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

type rig struct {
	k   *ntsim.Kernel
	mgr *scm.Manager
}

func newRig(t *testing.T, cmdLine string, interceptor ntsim.SyscallInterceptor) *rig {
	t.Helper()
	k := ntsim.NewKernel()
	mgr := scm.New(k, eventlog.New())
	cfg := DefaultConfig()
	Register(k, cfg)
	k.VFS().WriteFile(cfg.DocRoot+`\index.html`, []byte("<html>iis</html>"))
	if interceptor != nil {
		k.SetInterceptor(interceptor)
	}
	if cmdLine == "" {
		cmdLine = Image
	}
	if err := mgr.CreateService(scm.Config{Name: ServiceName, Image: Image, CmdLine: cmdLine, WaitHint: 4 * time.Second}); err != nil {
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

func (r *rig) fetch(t *testing.T, path string) (httpwire.Response, bool) {
	t.Helper()
	var resp httpwire.Response
	var ok bool
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
	deadline := r.k.Now().Add(60 * time.Second)
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
	n, errno := c.pc.ReadTimeout(c.p, buf, 15*time.Second)
	return n, errno == ntsim.ErrSuccess
}

func (c *testConn) Write(data []byte) bool {
	_, errno := c.pc.Write(data)
	return errno == ntsim.ErrSuccess
}

func TestSingleProcessServesBoth(t *testing.T) {
	r := newRig(t, "", nil)
	r.run(t, 5*time.Second)
	if live := r.k.LiveProcesses(); live != 1 {
		t.Fatalf("%d live processes, want 1 (IIS is single-process)", live)
	}
	static, ok := r.fetch(t, "/index.html")
	if !ok || static.Status != 200 || string(static.Body) != "<html>iis</html>" {
		t.Fatalf("static: ok=%v status=%d body=%q", ok, static.Status, static.Body)
	}
	cgi, ok := r.fetch(t, "/cgi-bin/info")
	if !ok || cgi.Status != 200 || !bytes.Equal(cgi.Body, CGIBody()) {
		t.Fatalf("cgi: ok=%v status=%d", ok, cgi.Status)
	}
	if len(CGIBody()) != 1024 {
		t.Fatalf("CGI body %d bytes, want 1024", len(CGIBody()))
	}
}

func TestReportsRunningBeforeServing(t *testing.T) {
	r := newRig(t, "", nil)
	r.run(t, 2*time.Second)
	st, _, _ := r.mgr.QueryServiceStatus(ServiceName)
	if st != scm.Running {
		t.Fatalf("state %v, want RUNNING within 2s (IIS reports early)", st)
	}
}

func TestRequestLogWritten(t *testing.T) {
	r := newRig(t, "", nil)
	r.run(t, 5*time.Second)
	r.fetch(t, "/index.html")
	data, ok := r.k.VFS().ReadFile(logPath)
	if !ok || !bytes.Contains(data, []byte("GET /index.html")) {
		t.Fatalf("request log missing entry: %q", data)
	}
}

// corrupt returns an interceptor corrupting one parameter of one function's
// first invocation in the IIS process.
func corrupt(k *ntsim.Kernel, fn string, param int, typ inject.FaultType) ntsim.SyscallInterceptor {
	return inject.New(k, inject.ByImage(Image), &inject.FaultSpec{
		Function: fn, Param: param, Invocation: 1, Type: typ,
	})
}

func TestSemaphoreWedgeSheds503(t *testing.T) {
	// A zeroed initial count on the connection semaphore wedges IIS into
	// shedding every request with 503 — no crash, so no restart-based
	// middleware ever recovers it (the residual failure class).
	k := ntsim.NewKernel()
	r := &rig{k: k}
	r.mgr = scm.New(k, eventlog.New())
	cfg := DefaultConfig()
	Register(k, cfg)
	k.VFS().WriteFile(cfg.DocRoot+`\index.html`, []byte("x"))
	k.SetInterceptor(corrupt(k, "CreateSemaphoreA", 1, inject.ZeroBits))
	r.mgr.CreateService(scm.Config{Name: ServiceName, Image: Image, CmdLine: Image, WaitHint: 4 * time.Second})
	r.mgr.StartService(ServiceName)
	r.run(t, 6*time.Second)
	resp, ok := r.fetch(t, "/index.html")
	if !ok || resp.Status != 503 {
		t.Fatalf("wedged fetch: ok=%v status=%d, want 503", ok, resp.Status)
	}
	if live := r.k.LiveProcesses(); live != 1 {
		t.Fatalf("%d live processes; the wedge must not kill IIS", live)
	}
}

func TestVrootWedgeServes404(t *testing.T) {
	// A nulled output buffer on the DocumentRoot read leaves the virtual
	// root invalid: every static request 404s forever.
	k := ntsim.NewKernel()
	r := &rig{k: k}
	r.mgr = scm.New(k, eventlog.New())
	cfg := DefaultConfig()
	Register(k, cfg)
	k.VFS().WriteFile(cfg.DocRoot+`\index.html`, []byte("x"))
	k.SetInterceptor(corrupt(k, "GetPrivateProfileStringA", 3, inject.ZeroBits))
	r.mgr.CreateService(scm.Config{Name: ServiceName, Image: Image, CmdLine: Image, WaitHint: 4 * time.Second})
	r.mgr.StartService(ServiceName)
	r.run(t, 6*time.Second)
	resp, ok := r.fetch(t, "/index.html")
	if !ok || resp.Status != 404 {
		t.Fatalf("vroot-wedged fetch: ok=%v status=%d, want 404", ok, resp.Status)
	}
	// CGI is independent of the vroot and still works.
	cgi, ok := r.fetch(t, "/cgi-bin/info")
	if !ok || cgi.Status != 200 {
		t.Fatalf("cgi under vroot wedge: ok=%v status=%d", ok, cgi.Status)
	}
}

func TestShutdownEventWedgeStopsServing(t *testing.T) {
	// A corrupted initial state on the shutdown event puts IIS in drain
	// mode from birth: the process stays alive but never accepts.
	k := ntsim.NewKernel()
	r := &rig{k: k}
	r.mgr = scm.New(k, eventlog.New())
	cfg := DefaultConfig()
	Register(k, cfg)
	k.VFS().WriteFile(cfg.DocRoot+`\index.html`, []byte("x"))
	k.SetInterceptor(corrupt(k, "CreateEventA", 2, inject.OneBits))
	r.mgr.CreateService(scm.Config{Name: ServiceName, Image: Image, CmdLine: Image, WaitHint: 4 * time.Second})
	r.mgr.StartService(ServiceName)
	r.run(t, 6*time.Second)
	if live := r.k.LiveProcesses(); live != 1 {
		t.Fatalf("%d live processes", live)
	}
	// The pipe instance exists, but IIS never accepts: the request times
	// out with no reply — a hang failure invisible to process monitors.
	if _, ok := r.fetch(t, "/index.html"); ok {
		t.Fatal("got a reply; drain-mode IIS should serve nothing")
	}
}
