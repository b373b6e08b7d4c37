// Package workload implements the DTS workload generator (§3): the
// synthetic client programs (HttpClient, SqlClient) with the paper's retry
// protocol — a 15-second reply timeout, a 15-second wait between attempts,
// and at most three attempts per request — plus the standard workload
// definitions for the Apache1, Apache2, IIS and SQL targets.
//
// Client programs are synthetic DTS tooling (the paper's were Java); they
// talk to the kernel's pipe layer directly rather than through the
// injected KERNEL32 surface, mirroring the fact that the paper injects the
// server program only.
package workload

import (
	"bytes"
	"sync"
	"time"

	"ntdts/internal/httpwire"
	"ntdts/internal/ntsim"
	"ntdts/internal/vclock"
)

// Paper §4: client reply timeout and inter-attempt wait are both 15 s, and
// a request is attempted at most three times.
const (
	ReplyTimeout = 15 * time.Second
	RetryWait    = 15 * time.Second
	MaxAttempts  = 3
)

// clientStartupCPU models the client program's own start-up cost (the
// paper's clients were Java programs on a 100 MHz Pentium).
const clientStartupCPU = 5100 * time.Millisecond

// perRequestCPU models client-side request construction and validation.
const perRequestCPU = 2 * time.Second

// RequestSpec is one client request plus its correctness oracle.
type RequestSpec struct {
	Name string
	// Send writes the request and reads the reply over an open
	// connection, returning the raw reply and whether a complete reply
	// arrived. The reply may be built in buf's storage.
	send func(p *ntsim.Process, conn Conn, deadline vclock.Time, buf []byte) (reply []byte, complete bool)
	// Expected is the exact correct reply body.
	Expected []byte
	// PipePath is the server endpoint.
	PipePath string
}

// RequestRecord is the client's verdict on one request.
type RequestRecord struct {
	Name        string
	Attempts    int  // attempts actually made (1..MaxAttempts)
	Retried     bool // more than one attempt was needed
	Success     bool // a correct reply was eventually received
	GotResponse bool // at least one complete (possibly wrong) reply arrived
	Start       vclock.Time
	End         vclock.Time

	// Class and Client identify the issuing virtual client when the
	// workload runs a generated cohort (see Cohort). Canned single-client
	// workloads leave Class empty, which downstream per-class aggregation
	// treats as "no class data".
	Class  string
	Client int
}

// Report is the client program's output, read by the DTS data collector.
type Report struct {
	Requests []RequestRecord
	Started  bool
	Done     bool
	Start    vclock.Time
	End      vclock.Time
}

// AllSucceeded reports whether every request eventually got a correct reply.
func (r *Report) AllSucceeded() bool {
	if !r.Done || len(r.Requests) == 0 {
		return false
	}
	for _, req := range r.Requests {
		if !req.Success {
			return false
		}
	}
	return true
}

// AnyRetried reports whether any request needed a retransmission.
func (r *Report) AnyRetried() bool {
	for _, req := range r.Requests {
		if req.Retried {
			return true
		}
	}
	return false
}

// AnyResponse reports whether any complete reply was seen at all (the
// wrong-reply vs no-reply split of Figure 4's failure outcomes).
func (r *Report) AnyResponse() bool {
	for _, req := range r.Requests {
		if req.GotResponse {
			return true
		}
	}
	return false
}

// clientMain is the shared client skeleton: run each request through the
// paper's attempt/retry protocol.
func clientMain(p *ntsim.Process, reqs []RequestSpec, report *Report) uint32 {
	k := p.Kernel()
	report.Started = true
	report.Start = k.Now()
	p.ChargeTime(clientStartupCPU)
	for _, spec := range reqs {
		rec := RequestRecord{Name: spec.Name, Start: k.Now()}
		runRequest(p, spec, &rec)
		report.Requests = append(report.Requests, rec)
	}
	report.End = k.Now()
	report.Done = true
	return 0
}

// runRequest executes the paper's attempt/retry protocol for one request
// and fills in the record's verdict fields. Shared by the canned clients
// and the cohort clients so both observe faults identically.
func runRequest(p *ntsim.Process, spec RequestSpec, rec *RequestRecord) {
	runRequestOn(p, spec, rec, false)
}

// runRequestOn is runRequest with the client's host topology made
// explicit. The canned client runs on the server host (remote=false), so
// its per-request processing burns that host's CPU — the paper's
// single-client setup. A cohort's virtual clients model the paper's
// remote user population: their processing happens on their own machines,
// so it must advance only their own timeline (a sleep), never stall the
// server host — otherwise N clients' local work would serialize on the
// simulated CPU and saturate the service they are merely observing.
func runRequestOn(p *ntsim.Process, spec RequestSpec, rec *RequestRecord, remote bool) {
	k := p.Kernel()
	storage := replyPool.Get().(*[]byte)
	defer replyPool.Put(storage)
	for attempt := 1; attempt <= MaxAttempts; attempt++ {
		rec.Attempts = attempt
		deadline := k.Now().Add(ReplyTimeout)
		reply, complete := tryOnce(p, spec, deadline, *storage)
		if cap(reply) > cap(*storage) {
			*storage = reply[:0]
		}
		if complete {
			rec.GotResponse = true
			if bytes.Equal(reply, spec.Expected) {
				rec.Success = true
				break
			}
		}
		if attempt < MaxAttempts {
			p.SleepFor(RetryWait)
		}
	}
	rec.Retried = rec.Attempts > 1
	if remote {
		p.SleepFor(perRequestCPU)
	} else {
		p.ChargeTime(perRequestCPU)
	}
	rec.End = k.Now()
}

// replyPool recycles reply storage across requests and runs, so reading
// the 115 KB static page stops allocating it. A reply is dead once the
// oracle in runRequestOn has compared it.
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// tryOnce makes a single attempt: connect (polling until the deadline) and
// exchange one request/reply. Connections come from the kernel's
// registered dialer when one exists (cluster routing), else straight from
// the local pipe namespace.
func tryOnce(p *ntsim.Process, spec RequestSpec, deadline vclock.Time, buf []byte) ([]byte, bool) {
	k := p.Kernel()
	dial := dialerFor(k)
	var conn Conn
	for {
		var errno ntsim.Errno
		if dial != nil {
			conn, errno = dial(p, spec.PipePath)
		} else {
			var pc *ntsim.PipeClient
			pc, errno = k.ConnectPipeClient(spec.PipePath)
			if errno == ntsim.ErrSuccess {
				conn = pc
			}
		}
		if errno == ntsim.ErrSuccess {
			break
		}
		if !k.Now().Before(deadline) {
			return nil, false
		}
		p.SleepFor(250 * time.Millisecond)
	}
	defer conn.CloseClient()
	return spec.send(p, conn, deadline, buf)
}

// CloseClient is exported on the kernel type via a tiny wrapper so client
// code outside ntsim can close its end.

// timedConn adapts a workload Conn to httpwire.Conn with an absolute read
// deadline (the client's socket timeout).
type timedConn struct {
	p        *ntsim.Process
	pc       Conn
	deadline vclock.Time
}

func (c *timedConn) Read(buf []byte) (int, bool) {
	remaining := c.deadline.Sub(c.p.Kernel().Now())
	if remaining <= 0 {
		return 0, false
	}
	n, errno := c.pc.ReadTimeout(c.p, buf, remaining)
	if errno != ntsim.ErrSuccess {
		return 0, false
	}
	return n, true
}

func (c *timedConn) Write(data []byte) bool {
	_, errno := c.pc.Write(data)
	return errno == ntsim.ErrSuccess
}

// httpSend performs one HTTP exchange, returning the body when a complete,
// well-formed 200 response arrives. A non-200 or malformed reply counts as
// complete-but-wrong (reply != expected).
func httpSend(path string) func(*ntsim.Process, Conn, vclock.Time, []byte) ([]byte, bool) {
	return func(p *ntsim.Process, pc Conn, deadline vclock.Time, body []byte) ([]byte, bool) {
		conn := &timedConn{p: p, pc: pc, deadline: deadline}
		if !httpwire.WriteRequest(conn, httpwire.Request{Method: "GET", Path: path}) {
			return nil, false
		}
		resp, ok := httpwire.ReadResponse(conn, body)
		if !ok {
			return nil, false
		}
		if resp.Status != 200 {
			// A complete reply arrived but it is not the document:
			// report it so the run classifies as wrong-reply failure
			// rather than no-reply.
			return []byte(nil), true
		}
		return resp.Body, true
	}
}

// sqlSend performs one SQL exchange: one query line out, the framed reply
// back.
func sqlSend(query string) func(*ntsim.Process, Conn, vclock.Time, []byte) ([]byte, bool) {
	return func(p *ntsim.Process, pc Conn, deadline vclock.Time, reply []byte) ([]byte, bool) {
		if _, errno := pc.Write([]byte(query + "\n")); errno != ntsim.ErrSuccess {
			return nil, false
		}
		reply = reply[:0]
		buf := make([]byte, 4096)
		for {
			remaining := deadline.Sub(p.Kernel().Now())
			if remaining <= 0 {
				return nil, false
			}
			n, errno := pc.ReadTimeout(p, buf, remaining)
			if errno == ntsim.ErrBrokenPipe && len(reply) > 0 {
				// Server disconnected after replying: frame done.
				return reply, sqlReplyComplete(reply)
			}
			if errno != ntsim.ErrSuccess {
				return nil, false
			}
			reply = append(reply, buf[:n]...)
			if sqlReplyComplete(reply) {
				return reply, true
			}
		}
	}
}

// sqlReplyComplete checks the "OK <n>\n<payload>" / "ERR <msg>\n" framing.
func sqlReplyComplete(reply []byte) bool {
	nl := bytes.IndexByte(reply, '\n')
	if nl < 0 {
		return false
	}
	head := string(reply[:nl])
	if len(head) >= 4 && head[:4] == "ERR " {
		return true
	}
	if len(head) > 3 && head[:3] == "OK " {
		n := 0
		for _, c := range head[3:] {
			if c < '0' || c > '9' {
				return false
			}
			n = n*10 + int(c-'0')
		}
		return len(reply) >= nl+1+n
	}
	return false
}
