package httpwire

import (
	"bytes"
	"testing"
	"testing/quick"
)

// loopConn is an in-memory Conn for tests.
type loopConn struct {
	buf    bytes.Buffer
	broken bool
}

func (l *loopConn) Read(buf []byte) (int, bool) {
	if l.broken && l.buf.Len() == 0 {
		return 0, false
	}
	if l.buf.Len() == 0 {
		return 0, false // tests never block
	}
	n, _ := l.buf.Read(buf)
	return n, true
}

func (l *loopConn) Write(data []byte) bool {
	if l.broken {
		return false
	}
	l.buf.Write(data)
	return true
}

func TestRequestRoundtrip(t *testing.T) {
	c := &loopConn{}
	if !WriteRequest(c, Request{Method: "GET", Path: "/index.html"}) {
		t.Fatal("WriteRequest failed")
	}
	req, ok := ReadRequest(c)
	if !ok || req.Method != "GET" || req.Path != "/index.html" {
		t.Fatalf("ReadRequest = %+v, %v", req, ok)
	}
}

func TestResponseRoundtrip(t *testing.T) {
	c := &loopConn{}
	body := bytes.Repeat([]byte("x"), 115*1024)
	if !WriteResponse(c, Response{Status: 200, Body: body}) {
		t.Fatal("WriteResponse failed")
	}
	resp, ok := ReadResponse(c, nil)
	if !ok || resp.Status != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("ReadResponse status=%d len=%d ok=%v", resp.Status, len(resp.Body), ok)
	}
}

func TestEmptyBodyResponse(t *testing.T) {
	c := &loopConn{}
	WriteResponse(c, Response{Status: 404})
	resp, ok := ReadResponse(c, nil)
	if !ok || resp.Status != 404 || len(resp.Body) != 0 {
		t.Fatalf("resp=%+v ok=%v", resp, ok)
	}
}

func TestMalformedRequestLine(t *testing.T) {
	for _, raw := range []string{
		"GARBAGE\r\n\r\n",
		"GET /x\r\n\r\n",
		"GET /x NOTHTTP\r\n\r\n",
		"\r\n\r\n",
	} {
		c := &loopConn{}
		c.buf.WriteString(raw)
		if _, ok := ReadRequest(c); ok {
			t.Errorf("accepted malformed request %q", raw)
		}
	}
}

func TestMalformedResponses(t *testing.T) {
	for _, raw := range []string{
		"HTTP/1.0 abc OK\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.0 99 X\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.0 200 OK\r\n\r\n",                           // no Content-Length
		"HTTP/1.0 200 OK\r\nContent-Length: -5\r\n\r\n",     // negative
		"HTTP/1.0 200 OK\r\nContent-Length: 999999\r\n\r\n", // truncated body
		"NOPE 200\r\nContent-Length: 0\r\n\r\n",
	} {
		c := &loopConn{}
		c.buf.WriteString(raw)
		if _, ok := ReadResponse(c, nil); ok {
			t.Errorf("accepted malformed response %q", raw)
		}
	}
}

func TestHeaderFlood(t *testing.T) {
	c := &loopConn{}
	c.buf.Write(bytes.Repeat([]byte("AAAA"), 10000)) // no blank line
	if _, ok := ReadRequest(c); ok {
		t.Fatal("accepted unbounded header")
	}
}

func TestBrokenConnection(t *testing.T) {
	c := &loopConn{broken: true}
	if WriteRequest(c, Request{Method: "GET", Path: "/"}) {
		t.Fatal("write on broken conn succeeded")
	}
	if _, ok := ReadResponse(c, nil); ok {
		t.Fatal("read on broken conn succeeded")
	}
}

func TestBodySplitAcrossReads(t *testing.T) {
	// Bodies arriving in fragments must reassemble.
	c := &loopConn{}
	WriteResponse(c, Response{Status: 200, Body: []byte("hello world")})
	// Move everything into a fragmenting conn.
	frag := &fragConn{data: c.buf.Bytes(), chunk: 3}
	resp, ok := ReadResponse(frag, nil)
	if !ok || string(resp.Body) != "hello world" {
		t.Fatalf("resp=%+v ok=%v", resp, ok)
	}
}

type fragConn struct {
	data  []byte
	chunk int
}

func (f *fragConn) Read(buf []byte) (int, bool) {
	if len(f.data) == 0 {
		return 0, false
	}
	n := f.chunk
	if n > len(f.data) || n > len(buf) {
		n = min(len(f.data), len(buf))
	}
	copy(buf, f.data[:n])
	f.data = f.data[n:]
	return n, true
}

func (f *fragConn) Write([]byte) bool { return false }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: any response body survives a write/read roundtrip byte-exact.
func TestPropertyResponseRoundtrip(t *testing.T) {
	f := func(status uint8, body []byte) bool {
		st := 200 + int(status)%200
		c := &loopConn{}
		if !WriteResponse(c, Response{Status: st, Body: body}) {
			return false
		}
		resp, ok := ReadResponse(c, nil)
		return ok && resp.Status == st && bytes.Equal(resp.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: request paths without whitespace or control bytes roundtrip.
func TestPropertyRequestRoundtrip(t *testing.T) {
	f := func(seed []byte) bool {
		path := "/"
		for _, b := range seed {
			ch := byte('a' + b%26)
			path += string(ch)
		}
		c := &loopConn{}
		if !WriteRequest(c, Request{Method: "GET", Path: path}) {
			return false
		}
		req, ok := ReadRequest(c)
		return ok && req.Method == "GET" && req.Path == path
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
