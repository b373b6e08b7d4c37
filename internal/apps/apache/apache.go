// Package apache simulates the Apache 1.3.3 web server for Win32 in the
// two-process configuration the paper uses (§4.1): a management process
// ("Apache1") that spawns exactly one worker child ("Apache2") and respawns
// it when it dies, plus the worker itself, which serves a 115 kB static
// page and a 1 kB CGI page over the HTTP pipe. The master's built-in
// failure detection and restart of the child is the architectural feature
// behind the paper's Apache1/Apache2 asymmetry: middleware monitors only
// the first process, while the master itself already recovers the child.
package apache

import (
	"fmt"
	"time"

	"ntdts/internal/apps/common"
	"ntdts/internal/httpwire"
	"ntdts/internal/ntsim"
	"ntdts/internal/ntsim/crt"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/scm"
)

const (
	// Image is the executable name both Apache processes run under.
	Image = "apache.exe"
	// CGIImage is the helper the worker spawns for CGI requests.
	CGIImage = "cgi.exe"
	// ServiceName is the SCM service name.
	ServiceName = "Apache"
	// ConfigPath is the INI file the master reads at startup.
	ConfigPath = `C:\Apache\conf\httpd.ini`
	// readyEventName is the named event the child signals once listening.
	readyEventName = "Local\\apache_child_ready"
)

// Config controls the simulated installation.
type Config struct {
	// DocRoot is where index.html lives.
	DocRoot string
	// InitCPU is the worker's module-initialization CPU time; it delays
	// the master's RUNNING report (the SCM start-pending window).
	InitCPU time.Duration
	// RequestCPU is per-request processing time in the worker.
	RequestCPU time.Duration
}

// DefaultConfig matches the paper's two-process test configuration.
func DefaultConfig() Config {
	return Config{
		DocRoot:    `C:\Apache\htdocs`,
		InitCPU:    800 * time.Millisecond,
		RequestCPU: 1350 * time.Millisecond,
	}
}

// Register installs the Apache images on the kernel and writes the
// configuration file. DTS workload setup calls this once per run.
func Register(k *ntsim.Kernel, cfg Config) {
	if cfg.DocRoot == "" {
		cfg = DefaultConfig()
	}
	k.VFS().WriteFile(ConfigPath, []byte(fmt.Sprintf(
		"[server]\r\nDocumentRoot=%s\r\nMaxChildren=1\r\n", cfg.DocRoot)))
	k.RegisterImage(Image, func(p *ntsim.Process) uint32 {
		return run(p, cfg)
	})
	k.RegisterImage(CGIImage, cgiMain)
}

// run dispatches master vs worker on the -child flag.
func run(p *ntsim.Process, cfg Config) uint32 {
	api := win32.New(p)
	rt := crt.Startup(api)
	flags := common.ParseFlags(api.GetCommandLineA())
	if flags.Child {
		return childMain(api, rt, cfg, flags)
	}
	return masterMain(api, rt, cfg, flags)
}

// masterMain is Apache1: read config, spawn the worker, report RUNNING,
// then monitor and respawn the worker forever.
func masterMain(api *win32.API, rt *crt.Runtime, cfg Config, flags common.Flags) uint32 {
	k := api.Kernel()

	// Like the real Apache service shim, the master reports RUNNING as
	// soon as the C runtime is up — before reading configuration or
	// spawning the worker. Deaths after this point do not hold the SCM
	// database locked; deaths before it (CRT faults) do, for the full
	// wait hint (§4.2's Start-Pending effect).
	scm.ReportRunning(k, ServiceName)

	docRoot := api.GetPrivateProfileStringA("server", "DocumentRoot", cfg.DocRoot, ConfigPath)
	maxChildren := api.GetPrivateProfileIntA("server", "MaxChildren", 1, ConfigPath)
	if maxChildren < 1 {
		maxChildren = 1
	}
	_ = docRoot // the worker re-reads its own configuration

	if flags.Cluster {
		clusterMasterExtras(api)
	}

	readyEv := api.CreateEventA(true, false, readyEventName)

	childCmd := Image + " -child"
	if rest := flags.String(); rest != "" {
		childCmd = Image + " -child " + rest
	}
	var pi win32.ProcessInformation
	if !api.CreateProcessA(Image, childCmd, nil, &pi) {
		// Cannot spawn the worker: nothing will serve requests.
		api.ExitProcess(1)
	}
	api.WaitForSingleObject(readyEv, 30_000)

	for {
		res := api.WaitForSingleObject(pi.HProcess, win32.Infinite)
		if res != ntsim.WaitObject0 {
			// Corrupted wait or bad handle: back off, keep trying.
			api.Sleep(1000)
			continue
		}
		// Worker died: Apache's built-in recovery respawns it.
		api.CloseHandle(pi.HProcess)
		api.ResetEvent(readyEv)
		if !api.CreateProcessA(Image, childCmd, nil, &pi) {
			api.Sleep(1000)
			continue
		}
		api.WaitForSingleObject(readyEv, 30_000)
	}
}

// clusterMasterExtras are the additional KERNEL32 calls the master makes
// when started as an MSCS cluster resource (Table 1's +4 for Apache1).
func clusterMasterExtras(api *win32.API) {
	var name string
	api.GetComputerNameA(&name)
	api.GetTickCount()
	api.GetEnvironmentVariableA("ClusterName", nil)
	api.OutputDebugStringA("apache: cluster resource online")
}

// childMain is Apache2: create the HTTP pipe, signal readiness, serve.
func childMain(api *win32.API, rt *crt.Runtime, cfg Config, flags common.Flags) uint32 {
	api.Process().ChargeTime(cfg.InitCPU) // module initialization

	if flags.Cluster {
		api.GetEnvironmentVariableA("ClusterName", nil)
		api.GetTickCount()
	}

	pipe := api.CreateNamedPipeA(common.HTTPPipe, win32.PipeAccessDuplex, win32.PipeTypeByte, 1)

	readyEv := api.CreateEventA(true, false, readyEventName)
	api.SetEvent(readyEv)

	docRoot := cfg.DocRoot
	for {
		if !api.ConnectNamedPipe(pipe) {
			// Bad pipe handle or broken instance: back off rather
			// than spin (a fault here degenerates into a hang).
			api.Sleep(500)
			continue
		}
		conn := &common.HandleConn{API: api, Handle: pipe}
		req, ok := httpwire.ReadRequest(conn)
		if ok {
			api.Process().ChargeTime(cfg.RequestCPU)
			serveRequest(api, conn, docRoot, req)
		}
		// Disconnecting discards unread bytes, so drain first.
		api.FlushFileBuffers(pipe)
		api.DisconnectNamedPipe(pipe)
	}
}

// serveRequest routes one HTTP request.
func serveRequest(api *win32.API, conn httpwire.Conn, docRoot string, req httpwire.Request) {
	switch {
	case req.Method != "GET":
		httpwire.WriteResponse(conn, httpwire.Response{Status: 400})
	case req.Path == "/" || req.Path == "/index.html":
		common.ServeStatic(api, conn, docRoot+`\index.html`)
	case req.Path == "/cgi-bin/info":
		serveCGI(api, conn)
	default:
		httpwire.WriteResponse(conn, httpwire.Response{Status: 404})
	}
}

// serveCGI spawns the CGI helper, which writes its output to a temp file;
// the worker then relays that file as the response body — the temp-file CGI
// plumbing Apache for Win32 actually used.
func serveCGI(api *win32.API, conn httpwire.Conn) {
	var tmpDir string
	api.GetTempPathA(&tmpDir)
	tmpFile := tmpDir + "apache_cgi_out.txt"

	var pi win32.ProcessInformation
	if !api.CreateProcessA(CGIImage, CGIImage+" "+tmpFile, nil, &pi) {
		httpwire.WriteResponse(conn, httpwire.Response{Status: 500})
		return
	}
	api.WaitForSingleObject(pi.HProcess, 10_000)
	api.CloseHandle(pi.HProcess)

	h := api.CreateFileA(tmpFile, win32.GenericRead, 0, win32.OpenExisting, 0)
	if h == win32.InvalidHandle {
		httpwire.WriteResponse(conn, httpwire.Response{Status: 500})
		return
	}
	size := api.GetFileSize(h, nil)
	body := make([]byte, 0, 1024)
	buf := make([]byte, 1024)
	for uint32(len(body)) < size {
		var n uint32
		if !api.ReadFile(h, buf, uint32(len(buf)), &n) || n == 0 {
			break
		}
		body = append(body, buf[:n]...)
	}
	api.CloseHandle(h)
	httpwire.WriteResponse(conn, httpwire.Response{Status: 200, Body: body})
}

// CGIBody is the deterministic 1 kB document the CGI helper produces; the
// HttpClient workload validates replies against it.
func CGIBody() []byte {
	body := []byte("<html><head><title>CGI Info</title></head><body>")
	line := []byte("<p>Apache CGI environment report: all systems nominal.</p>")
	for len(body) < 1024-len("</body></html>")-len(line) {
		body = append(body, line...)
	}
	body = append(body, []byte("</body></html>")...)
	return body[:1024]
}

// cgiMain is the CGI helper process: write the fixed document to the file
// named on the command line.
func cgiMain(p *ntsim.Process) uint32 {
	api := win32.New(p)
	cmd := api.GetCommandLineA()
	// Path is everything after the first space.
	path := ""
	for i := 0; i < len(cmd); i++ {
		if cmd[i] == ' ' {
			path = cmd[i+1:]
			break
		}
	}
	if path == "" {
		return 1
	}
	h := api.CreateFileA(path, win32.GenericWrite, 0, win32.CreateAlways, 0)
	if h == win32.InvalidHandle {
		return 1
	}
	body := CGIBody()
	var n uint32
	api.WriteFile(h, body, uint32(len(body)), &n)
	api.CloseHandle(h)
	return 0
}
