// Package iis simulates Microsoft Internet Information Server 3.0 in its
// HTTP role (the only functionality the paper tests). Unlike Apache, IIS
// is a single process: all request handling — including CGI — happens
// in-process, so any crash takes the whole service down unless external
// middleware restarts it. IIS also touches a far broader slice of KERNEL32
// during initialization (Table 1: 76 activated functions vs Apache's
// 13+22), which is exactly what gives it a larger fault-activation surface.
package iis

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
	// Image is the executable name.
	Image = "inetinfo.exe"
	// ServiceName is the SCM service name.
	ServiceName = "W3SVC"
	// ConfigPath is the metabase stand-in.
	ConfigPath = `C:\WINNT\system32\inetsrv\w3svc.ini`
	// logPath is the IIS request log.
	logPath = `C:\WINNT\system32\LogFiles\inetsv1.log`
)

// Config controls the simulated installation.
type Config struct {
	// DocRoot is the wwwroot directory.
	DocRoot string
	// RequestCPU is extra per-request processing (ISAPI filters, logging);
	// it is what makes IIS slower than Apache on fault-free requests
	// (Figure 4: 18.94 s vs 14.21 s).
	RequestCPU time.Duration
}

// DefaultConfig matches the paper's testbed role.
func DefaultConfig() Config {
	return Config{
		DocRoot:    `C:\InetPub\wwwroot`,
		RequestCPU: 3650 * time.Millisecond,
	}
}

// Register installs the IIS image and its configuration.
func Register(k *ntsim.Kernel, cfg Config) {
	if cfg.DocRoot == "" {
		cfg = DefaultConfig()
	}
	k.VFS().WriteFile(ConfigPath, []byte(fmt.Sprintf(
		"[w3svc]\r\nDocumentRoot=%s\r\nMaxConnections=32\r\n", cfg.DocRoot)))
	k.RegisterImage(Image, func(p *ntsim.Process) uint32 {
		return run(p, cfg)
	})
}

func run(p *ntsim.Process, cfg Config) uint32 {
	api := win32.New(p)
	rt := crt.Startup(api)
	flags := common.ParseFlags(api.GetCommandLineA())
	k := api.Kernel()

	// --- Phase 1: platform inventory (before the RUNNING report). ---
	api.Process().ChargeTime(150 * time.Millisecond)
	var ver win32.OSVersionInfo
	api.GetVersionExA(&ver)
	var si win32.SystemInfo
	api.GetSystemInfo(&si)
	api.GlobalMemoryStatus(nil)
	var host string
	api.GetComputerNameA(&host)
	api.GetSystemDirectoryA(nil)
	api.GetTempPathA(nil)
	api.GetCurrentDirectoryA(nil)
	api.GetSystemTimeAsFileTime(nil)
	api.QueryPerformanceFrequency(nil)
	api.QueryPerformanceCounter(nil)
	api.GetTickCount()
	api.GetSystemTime(nil)
	api.GetCPInfo(1252, nil)
	api.GetCurrentProcessId()
	api.GetCurrentProcess()
	api.GetCurrentThreadId()
	api.GetModuleFileNameA(0, nil)
	api.GetEnvironmentVariableA("SystemRoot", nil)
	api.SetLastError(0)
	api.GetLastError()
	api.SetHandleCount(64)
	api.Process().ChargeTime(350 * time.Millisecond)

	// IIS reports RUNNING early, then completes worker setup — the real
	// service does the same, which is why most of its injected faults
	// strike after the SCM has already left START_PENDING.
	scm.ReportRunning(k, ServiceName)

	// --- Phase 2: subsystem initialization (spread over real time on a
	// 100 MHz part; where in this window a fault kills the process decides
	// which watchd version can still recover it). ---
	api.Process().ChargeTime(300 * time.Millisecond)
	wsock := api.LoadLibraryA("wsock32.dll")
	if wsock == 0 {
		wsock = api.LoadLibraryA("advapi32.dll")
	}
	api.GetProcAddress(wsock, "WSAStartup")
	api.FreeLibrary(wsock)

	privHeap := api.HeapCreate(0, 64*1024, 0)
	blk := api.HeapAlloc(privHeap, 0, 4096)
	api.HeapFree(privHeap, 0, blk)
	va := api.VirtualAlloc(0, 64*1024, 0, 0)
	api.VirtualFree(va, 0, 0)
	la := api.LocalAlloc(0, 512)
	api.LocalFree(la)
	ga := api.GlobalAlloc(0, 512)
	api.GlobalFree(ga)

	api.Process().ChargeTime(300 * time.Millisecond)
	// Worker context TLS slot: requests are refused with 500 if the slot
	// is unusable (a corrupted slot index or value wedges the server
	// without killing it — a failure no restart-based middleware sees).
	tlsOK := api.TlsSetValue(0, 1) && api.TlsGetValue(0) != 0
	shutdownEv := api.CreateEventA(true, false, "Local\\iis_shutdown")
	// Connection-limit semaphore: if the pool cannot be initialized the
	// server sheds every connection with 503 (again invisible to
	// process-death monitors).
	connSem := api.CreateSemaphoreA(32, 32, "")
	semOK := api.WaitForSingleObject(connSem, 0) == ntsim.WaitObject0 &&
		api.ReleaseSemaphore(connSem, 1, nil)
	var statsCS win32.CriticalSection
	api.InitializeCriticalSection(&statsCS)
	api.EnterCriticalSection(&statsCS)
	api.LeaveCriticalSection(&statsCS)
	var hits int32
	api.InterlockedExchange(&hits, 0)

	api.Process().ChargeTime(300 * time.Millisecond)
	api.LstrlenA(host)
	banner, _ := api.LstrcpyA("Microsoft-IIS/3.0")
	api.LstrcmpiA(banner, "microsoft-iis/3.0")
	api.MultiByteToWideChar(1252, banner)
	api.WideCharToMultiByte(1252, banner)

	docRoot := api.GetPrivateProfileStringA("w3svc", "DocumentRoot", cfg.DocRoot, ConfigPath)
	maxConn := api.GetPrivateProfileIntA("w3svc", "MaxConnections", 32, ConfigPath)
	_ = maxConn
	// The virtual root is validated once at startup; a corrupted document
	// root (or a failed existence probe) takes the static site offline
	// permanently — every request 404s, and no restart fixes it.
	indexPath, catOK := api.LstrcatA(docRoot, `\index.html`)
	vrootOK := catOK && api.GetFileAttributesA(indexPath) != 0xFFFFFFFF

	api.Process().ChargeTime(300 * time.Millisecond)
	logH := api.CreateFileA(logPath, win32.GenericWrite, 0, win32.OpenAlways, 0)
	logLine := func(line string) {
		data := []byte(line + "\r\n")
		var n uint32
		api.WriteFile(logH, data, uint32(len(data)), &n)
	}
	logLine("#Software: Microsoft Internet Information Server 3.0")
	api.GetFileType(logH)

	// Crash-recovery logger: skipped when watchd supervises the service
	// (watchd provides its own logging), which is what drops the
	// activated-function census from 76 to 70 in Table 1.
	if !flags.Monitored {
		crashLogger(api, rt)
	}

	// Cluster mode exercises no functions IIS does not already use, so
	// the census stays at 76 under MSCS (Table 1).
	if flags.Cluster {
		api.GetTickCount()
		api.GetComputerNameA(&host)
	}

	api.Process().ChargeTime(400 * time.Millisecond) // remaining warm-up

	// --- Phase 3: serve. ---
	pipe := api.CreateNamedPipeA(common.HTTPPipe, win32.PipeAccessDuplex, win32.PipeTypeByte, 1)
	for {
		if api.WaitForSingleObject(shutdownEv, 0) == ntsim.WaitObject0 {
			// Shutdown requested: drain mode. A corrupted event
			// initial-state wedges the server here forever.
			api.Sleep(1000)
			continue
		}
		if !api.ConnectNamedPipe(pipe) {
			api.Sleep(500)
			continue
		}
		conn := &common.HandleConn{API: api, Handle: pipe}
		req, ok := httpwire.ReadRequest(conn)
		if ok {
			api.InterlockedIncrement(&hits)
			api.Process().ChargeTime(cfg.RequestCPU)
			switch {
			case !semOK:
				httpwire.WriteResponse(conn, httpwire.Response{Status: 503})
			case !tlsOK:
				httpwire.WriteResponse(conn, httpwire.Response{Status: 500})
			default:
				serveRequest(api, conn, indexPath, vrootOK, req)
			}
			logLine("GET " + req.Path + " 200")
		}
		api.FlushFileBuffers(pipe)
		api.DisconnectNamedPipe(pipe)
	}
}

// crashLogger is IIS's internal failure logger; its six functions appear in
// the activation census only when watchd is absent.
func crashLogger(api *win32.API, rt *crt.Runtime) {
	mu := api.CreateMutexA(false, "Local\\iis_crashlog")
	api.WaitForSingleObject(mu, 0)
	api.GetLocalTime(nil)
	msg := api.FormatMessageA(0, 0)
	api.OutputDebugStringA("iis: crash recovery logger armed (" + msg + ")")
	var dup win32.Handle
	api.DuplicateHandle(0, mu, 0, &dup)
	api.CloseHandle(dup)
	api.ReleaseMutex(mu)
	h := api.CreateFileA(`C:\WINNT\system32\LogFiles\iis_crash.log`,
		win32.GenericWrite, 0, win32.OpenAlways, 0)
	api.FlushFileBuffers(h)
	api.CloseHandle(h)
}

// serveRequest handles one request entirely in-process.
func serveRequest(api *win32.API, conn httpwire.Conn, indexPath string, vrootOK bool, req httpwire.Request) {
	switch {
	case req.Method != "GET":
		httpwire.WriteResponse(conn, httpwire.Response{Status: 400})
	case req.Path == "/" || req.Path == "/index.html":
		if !vrootOK {
			httpwire.WriteResponse(conn, httpwire.Response{Status: 404})
			return
		}
		common.ServeStatic(api, conn, indexPath)
	case req.Path == "/cgi-bin/info":
		// In-process CGI: IIS generates the document directly.
		httpwire.WriteResponse(conn, httpwire.Response{Status: 200, Body: CGIBody()})
	default:
		httpwire.WriteResponse(conn, httpwire.Response{Status: 404})
	}
}

// CGIBody is the deterministic 1 kB CGI document IIS serves (identical
// shape to Apache's so the HttpClient workload validates both the same
// way).
func CGIBody() []byte {
	body := []byte("<html><head><title>CGI Info</title></head><body>")
	line := []byte("<p>IIS CGI environment report: all systems nominal.</p>")
	for len(body) < 1024-len("</body></html>")-len(line) {
		body = append(body, line...)
	}
	body = append(body, []byte("</body></html>")...)
	return body[:1024]
}
