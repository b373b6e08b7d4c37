package ntsim

import (
	"strings"
	"sync"
	"time"

	"ntdts/internal/vclock"
)

// Named pipes are the simulated machine's client/server transport. Using
// pipes (rather than a sockets model) keeps every byte of client/server I/O
// inside the KERNEL32 API surface — CreateNamedPipeA, ConnectNamedPipe,
// ReadFile, WriteFile, DisconnectNamedPipe — which is exactly the surface
// the paper injects.

// pipeDir is one direction of a connected pipe: a byte queue with at most
// one blocked reader and at most one writer blocked in a drain wait
// (FlushFileBuffers semantics: DisconnectNamedPipe discards unread bytes,
// exactly like Win32, so well-behaved servers flush before disconnecting).
type pipeDir struct {
	buf        []byte // buffered bytes are buf[off:]; off avoids realloc on refill
	off        int
	writerOpen bool
	readerGone bool
	reader     *Process
	drainer    *Process
}

func (d *pipeDir) wakeReader(k *Kernel) {
	if d.reader == nil {
		return
	}
	r := d.reader
	d.reader = nil
	k.wake(r, WaitObject0, ErrSuccess)
}

func (d *pipeDir) wakeDrainer(k *Kernel) {
	if d.drainer == nil {
		return
	}
	w := d.drainer
	d.drainer = nil
	k.wake(w, WaitObject0, ErrSuccess)
}

// waitDrained blocks the writer until the reader has consumed every
// buffered byte, or the reader end disappears.
func (d *pipeDir) waitDrained(p *Process) Errno {
	for d.pending() > 0 {
		if d.readerGone {
			return ErrBrokenPipe
		}
		if d.drainer != nil {
			return ErrBusy
		}
		d.drainer = p
		p.waitCancel = func() { d.drainer = nil }
		if _, errno := p.block(); errno != ErrSuccess {
			return errno
		}
	}
	return ErrSuccess
}

// read blocks p until data is available or the writer side closes.
func (d *pipeDir) read(p *Process, buf []byte) (int, Errno) {
	return d.readDeadline(p, buf, 0)
}

// readDeadline is read with an optional timeout (0 = block indefinitely).
// On expiry it returns ErrSemTimeout with zero bytes.
func (d *pipeDir) readDeadline(p *Process, buf []byte, timeout time.Duration) (int, Errno) {
	k := p.k
	for d.pending() == 0 {
		if !d.writerOpen {
			return 0, ErrBrokenPipe
		}
		if d.reader != nil {
			// One outstanding read per direction in this model.
			return 0, ErrBusy
		}
		d.reader = p
		p.waitCancel = func() { d.reader = nil }
		var timerID vclock.EventID
		if timeout > 0 {
			timerID = k.clock.ScheduleAfter(timeout, func() {
				if d.reader == p {
					d.reader = nil
					k.wake(p, WaitTimeout, ErrSemTimeout)
				}
			})
		}
		_, errno := p.block()
		if timeout > 0 {
			k.clock.Cancel(timerID)
		}
		if errno != ErrSuccess {
			return 0, errno
		}
	}
	n := copy(buf, d.buf[d.off:])
	d.off += n
	if d.off == len(d.buf) {
		// Fully drained: rewind so the backing array is reused instead
		// of reallocated on the next request-response round trip.
		d.buf, d.off = d.buf[:0], 0
		d.wakeDrainer(k)
	}
	return n, ErrSuccess
}

// pending returns the number of buffered unread bytes.
func (d *pipeDir) pending() int { return len(d.buf) - d.off }

// connBufs is one connection's pair of byte queues. A broken connection
// returns its queues to connBufPool and the next accepted connection, on
// any kernel, takes them back: a serve-disconnect-reconnect loop stops
// reallocating the ~120 KB its largest reply needs. Only the backing
// arrays travel; the pipeDir structs stay with the dead connection, so a
// straggling reader still observes EOF through its own flags.
type connBufs struct{ toServer, toClient []byte }

var connBufPool = sync.Pool{New: func() any { return new(connBufs) }}

// detach strips a dead direction's backing array for reuse. A direction
// still holding unread bytes keeps them for a reader that was woken before
// the disconnect, and gives nothing up.
func (d *pipeDir) detach() []byte {
	if d.pending() > 0 {
		return nil
	}
	b := d.buf[:0]
	d.buf, d.off = nil, 0
	return b
}

func (d *pipeDir) write(k *Kernel, data []byte) (int, Errno) {
	if !d.writerOpen {
		return 0, ErrNoData
	}
	d.buf = append(d.buf, data...)
	d.wakeReader(k)
	return len(data), ErrSuccess
}

// closeWriter half-closes the direction; a blocked reader observes EOF.
func (d *pipeDir) closeWriter(k *Kernel) {
	d.writerOpen = false
	d.wakeReader(k)
}

// PipeServer is one server-side instance of a named pipe.
type PipeServer struct {
	k         *Kernel
	Name      string
	connected bool
	closed    bool
	listener  *Process  // server blocked in ConnectNamedPipe
	toServer  *pipeDir  // client -> server bytes
	toClient  *pipeDir  // server -> client bytes
	bufs      *connBufs // the connected directions' pooled queues
	peer      *PipeClient
}

// PipeClient is the client end of a connected named pipe.
type PipeClient struct {
	k      *Kernel
	srv    *PipeServer
	closed bool
}

// normalizePipeName strips the \\.\pipe\ prefix and lowercases.
func normalizePipeName(path string) (string, bool) {
	low := strings.ToLower(strings.ReplaceAll(path, "/", `\`))
	const prefix = `\\.\pipe\`
	if !strings.HasPrefix(low, prefix) {
		return "", false
	}
	name := low[len(prefix):]
	if name == "" {
		return "", false
	}
	return name, true
}

// IsPipePath reports whether a path names the pipe namespace.
func IsPipePath(path string) bool {
	_, ok := normalizePipeName(path)
	return ok
}

// CreatePipeServer creates a new listening instance of the named pipe.
func (k *Kernel) CreatePipeServer(path string) (*PipeServer, Errno) {
	name, ok := normalizePipeName(path)
	if !ok {
		return nil, ErrInvalidName
	}
	ps := &PipeServer{k: k, Name: name}
	k.pipes[name] = append(k.pipes[name], ps)
	return ps, ErrSuccess
}

// ConnectPipeClient connects a client to an available instance of the named
// pipe, returning ErrPipeBusy when all instances are connected and
// ErrFileNotFound when no instance exists.
func (k *Kernel) ConnectPipeClient(path string) (*PipeClient, Errno) {
	name, ok := normalizePipeName(path)
	if !ok {
		return nil, ErrInvalidName
	}
	instances := k.pipes[name]
	if len(instances) == 0 {
		return nil, ErrFileNotFound
	}
	for _, ps := range instances {
		if ps.closed || ps.connected {
			continue
		}
		return ps.acceptClient(), ErrSuccess
	}
	return nil, ErrPipeBusy
}

// PipeAvailable reports whether a connectable instance of the named pipe
// exists right now (WaitNamedPipe polling support).
func (k *Kernel) PipeAvailable(path string) (bool, Errno) {
	name, ok := normalizePipeName(path)
	if !ok {
		return false, ErrInvalidName
	}
	instances := k.pipes[name]
	if len(instances) == 0 {
		return false, ErrFileNotFound
	}
	for _, ps := range instances {
		if !ps.closed && !ps.connected {
			return true, ErrSuccess
		}
	}
	return false, ErrSuccess
}

// acceptClient wires a fresh client end onto this instance, taking its
// byte queues from connBufPool.
func (ps *PipeServer) acceptClient() *PipeClient {
	ps.connected = true
	ps.bufs = connBufPool.Get().(*connBufs)
	ps.toServer = &pipeDir{writerOpen: true, buf: ps.bufs.toServer[:0]}
	ps.toClient = &pipeDir{writerOpen: true, buf: ps.bufs.toClient[:0]}
	pc := &PipeClient{k: ps.k, srv: ps}
	ps.peer = pc
	if ps.listener != nil {
		l := ps.listener
		ps.listener = nil
		ps.k.wake(l, WaitObject0, ErrSuccess)
	}
	return pc
}

// Listen blocks the server process until a client connects
// (ConnectNamedPipe). If a client is already connected it returns
// ErrPipeConnected immediately, mirroring Win32.
func (ps *PipeServer) Listen(p *Process) Errno {
	if ps.closed {
		return ErrInvalidHandle
	}
	if ps.connected {
		return ErrPipeConnected
	}
	if ps.listener != nil {
		return ErrBusy
	}
	ps.listener = p
	p.waitCancel = func() { ps.listener = nil }
	if _, errno := p.block(); errno != ErrSuccess {
		return errno
	}
	return ErrSuccess
}

// Read reads from the client->server direction.
func (ps *PipeServer) Read(p *Process, buf []byte) (int, Errno) {
	if ps.closed {
		return 0, ErrInvalidHandle
	}
	if !ps.connected {
		return 0, ErrPipeListening
	}
	return ps.toServer.read(p, buf)
}

// Write writes to the server->client direction.
func (ps *PipeServer) Write(data []byte) (int, Errno) {
	if ps.closed {
		return 0, ErrInvalidHandle
	}
	if !ps.connected {
		return 0, ErrPipeListening
	}
	return ps.toClient.write(ps.k, data)
}

// Disconnect drops the current client and returns the instance to the
// connectable state.
func (ps *PipeServer) Disconnect() Errno {
	if ps.closed {
		return ErrInvalidHandle
	}
	if !ps.connected {
		return ErrPipeNotConnected
	}
	ps.breakConnection()
	return ErrSuccess
}

// breakConnection ends the current connection; callers check connected.
func (ps *PipeServer) breakConnection() {
	ps.connected = false
	// Win32 semantics: unread bytes are discarded on disconnect.
	ps.toClient.buf, ps.toClient.off = ps.toClient.buf[:0], 0
	ps.toClient.readerGone = true
	ps.toClient.closeWriter(ps.k)
	ps.toClient.wakeDrainer(ps.k)
	ps.toServer.readerGone = true
	ps.toServer.closeWriter(ps.k)
	ps.toServer.wakeDrainer(ps.k)
	if ps.peer != nil {
		ps.peer.srvGone()
		ps.peer = nil
	}
	ps.bufs.toServer = ps.toServer.detach()
	ps.bufs.toClient = ps.toClient.detach()
	connBufPool.Put(ps.bufs)
	ps.toServer, ps.toClient, ps.bufs = nil, nil, nil
}

// Flush blocks until the client has consumed all bytes the server wrote
// (FlushFileBuffers on a pipe handle).
func (ps *PipeServer) Flush(p *Process) Errno {
	if ps.closed {
		return ErrInvalidHandle
	}
	if !ps.connected {
		return ErrPipeNotConnected
	}
	return ps.toClient.waitDrained(p)
}

// closeServer tears the instance down and removes it from the namespace.
func (ps *PipeServer) closeServer() {
	if ps.closed {
		return
	}
	if ps.connected {
		ps.breakConnection()
	}
	if ps.listener != nil {
		l := ps.listener
		ps.listener = nil
		ps.k.wake(l, WaitFailed, ErrInvalidHandle)
	}
	ps.closed = true
	live := ps.k.pipes[ps.Name][:0]
	for _, inst := range ps.k.pipes[ps.Name] {
		if inst != ps {
			live = append(live, inst)
		}
	}
	if len(live) == 0 {
		delete(ps.k.pipes, ps.Name)
	} else {
		ps.k.pipes[ps.Name] = live
	}
}

// Read reads server->client bytes.
func (pc *PipeClient) Read(p *Process, buf []byte) (int, Errno) {
	if pc.closed {
		return 0, ErrInvalidHandle
	}
	if pc.srv == nil {
		return 0, ErrBrokenPipe
	}
	return pc.srv.toClient.read(p, buf)
}

// ReadTimeout reads server->client bytes with a deadline, returning
// ErrSemTimeout on expiry. Synthetic DTS client programs use this to model
// their socket receive timeout.
func (pc *PipeClient) ReadTimeout(p *Process, buf []byte, timeout time.Duration) (int, Errno) {
	if pc.closed {
		return 0, ErrInvalidHandle
	}
	if pc.srv == nil {
		return 0, ErrBrokenPipe
	}
	return pc.srv.toClient.readDeadline(p, buf, timeout)
}

// Write writes client->server bytes.
func (pc *PipeClient) Write(data []byte) (int, Errno) {
	if pc.closed {
		return 0, ErrInvalidHandle
	}
	if pc.srv == nil {
		return 0, ErrNoData
	}
	return pc.srv.toServer.write(pc.k, data)
}

// srvGone marks the server side as disconnected from under the client.
func (pc *PipeClient) srvGone() { pc.srv = nil }

// CloseClient closes the client end (for synthetic client programs that
// hold the object directly rather than through a handle table).
func (pc *PipeClient) CloseClient() { pc.closeClient() }

// closeClient closes the client end; the server observes EOF after
// draining buffered bytes.
func (pc *PipeClient) closeClient() {
	if pc.closed {
		return
	}
	pc.closed = true
	if pc.srv != nil {
		srv := pc.srv
		pc.srv = nil
		srv.peer = nil
		if srv.toServer != nil {
			srv.toServer.closeWriter(pc.k)
		}
		if srv.toClient != nil {
			srv.toClient.writerOpen = false
			srv.toClient.readerGone = true
			srv.toClient.wakeDrainer(pc.k)
		}
	}
}
