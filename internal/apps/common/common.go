// Package common holds the small pieces shared by the simulated target
// applications: the pipe-backed httpwire connection adapter, the web
// servers' static-file handler and service command-line conventions.
package common

import (
	"slices"
	"strings"
	"sync"

	"ntdts/internal/httpwire"
	"ntdts/internal/ntsim/win32"
)

// HTTPPipe is the named pipe the web servers (Apache, IIS) listen on — the
// simulation's port 80.
const HTTPPipe = `\\.\pipe\http80`

// SQLPipe is the named pipe the SQL server listens on.
const SQLPipe = `\\.\pipe\sql\query`

// Flags are the service start options conveyed on the command line.
// The DTS workload configuration appends them when a fault-tolerance
// middleware package is in play, changing which code paths (and therefore
// which KERNEL32 functions) the target activates — the effect behind the
// per-middleware columns of the paper's Table 1.
type Flags struct {
	Cluster   bool // started under MSCS (-cluster)
	Monitored bool // started under watchd (-monitored)
	Child     bool // Apache worker process (-child)
}

// ParseFlags extracts service flags from a command line.
func ParseFlags(cmdLine string) Flags {
	var f Flags
	for _, tok := range strings.Fields(cmdLine) {
		switch tok {
		case "-cluster":
			f.Cluster = true
		case "-monitored":
			f.Monitored = true
		case "-child":
			f.Child = true
		}
	}
	return f
}

// String renders flags back into command-line form (for child spawning).
func (f Flags) String() string {
	var parts []string
	if f.Cluster {
		parts = append(parts, "-cluster")
	}
	if f.Monitored {
		parts = append(parts, "-monitored")
	}
	if f.Child {
		parts = append(parts, "-child")
	}
	return strings.Join(parts, " ")
}

// HandleConn adapts a win32 file/pipe handle to httpwire.Conn. Server
// programs use it so that every transported byte crosses the injected
// KERNEL32 surface.
type HandleConn struct {
	API    *win32.API
	Handle win32.Handle
}

var _ httpwire.Conn = (*HandleConn)(nil)

// Read implements httpwire.Conn.
func (c *HandleConn) Read(buf []byte) (int, bool) {
	var n uint32
	if !c.API.ReadFile(c.Handle, buf, uint32(len(buf)), &n) {
		return 0, false
	}
	return int(n), true
}

// Write implements httpwire.Conn.
func (c *HandleConn) Write(data []byte) bool {
	total := 0
	for total < len(data) {
		var n uint32
		chunk := data[total:]
		if !c.API.WriteFile(c.Handle, chunk, uint32(len(chunk)), &n) {
			return false
		}
		if n == 0 {
			return false
		}
		total += int(n)
	}
	return true
}

// staticBufs is the storage one static-file response reads through: the
// whole document, and the chunk each ReadFile fills.
type staticBufs struct {
	body  []byte
	chunk [8192]byte
}

// staticPool recycles staticBufs across responses and runs, so serving
// the 115 KB index page stops allocating it.
var staticPool = sync.Pool{New: func() any { return new(staticBufs) }}

// ServeStatic answers a GET for a file: 404 when it cannot be opened, 500
// when its size cannot be read, otherwise 200 with the contents read in
// 8,192-byte ReadFile calls and sent as one header WriteFile and one body
// WriteFile. The storage goes back to staticPool only when WriteResponse
// has returned, after every WriteFile has released its address mapping.
func ServeStatic(api *win32.API, conn httpwire.Conn, path string) {
	h := api.CreateFileA(path, win32.GenericRead, 0, win32.OpenExisting, 0)
	if h == win32.InvalidHandle {
		httpwire.WriteResponse(conn, httpwire.Response{Status: 404})
		return
	}
	size := api.GetFileSize(h, nil)
	if size == 0xFFFFFFFF {
		api.CloseHandle(h)
		httpwire.WriteResponse(conn, httpwire.Response{Status: 500})
		return
	}
	sb := staticPool.Get().(*staticBufs)
	defer staticPool.Put(sb)
	sb.body = slices.Grow(sb.body[:0], int(size))
	for uint32(len(sb.body)) < size {
		var n uint32
		if !api.ReadFile(h, sb.chunk[:], uint32(len(sb.chunk)), &n) || n == 0 {
			break
		}
		sb.body = append(sb.body, sb.chunk[:n]...)
	}
	api.CloseHandle(h)
	httpwire.WriteResponse(conn, httpwire.Response{Status: 200, Body: sb.body})
}
