// Package httpwire implements a minimal HTTP/1.0 message layer over an
// abstract byte-stream connection. Both the simulated web servers (Apache,
// IIS) and the DTS HttpClient workload speak this format over simulated
// named pipes. The parser is deliberately defensive: a fault-injected
// server can emit truncated or corrupted bytes, and the client must detect
// that as an incorrect reply rather than misbehave.
package httpwire

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Conn is the transport the message layer runs over. Implementations wrap
// simulated pipe handles; ok=false signals a broken connection.
type Conn interface {
	// Read fills buf, returning the byte count; ok=false on error/EOF.
	Read(buf []byte) (n int, ok bool)
	// Write sends data fully; ok=false on error.
	Write(data []byte) (ok bool)
}

// Request is an HTTP request line (headers beyond Host are not modeled).
type Request struct {
	Method string
	Path   string
}

// Response is a parsed HTTP response.
type Response struct {
	Status int
	Body   []byte
}

// maxHeaderBytes bounds header scanning so corrupted streams terminate.
const maxHeaderBytes = 8 * 1024

// maxBodyBytes bounds bodies so a corrupted Content-Length terminates.
const maxBodyBytes = 4 * 1024 * 1024

// WriteRequest serializes a request onto the connection.
func WriteRequest(c Conn, req Request) bool {
	line := fmt.Sprintf("%s %s HTTP/1.0\r\nHost: ntlab1\r\n\r\n", req.Method, req.Path)
	return c.Write([]byte(line))
}

// ReadRequest parses a request from the connection.
func ReadRequest(c Conn) (Request, bool) {
	head, _, ok := readUntilBlankLine(c, nil)
	if !ok {
		return Request{}, false
	}
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return Request{}, false
	}
	parts := strings.Fields(lines[0])
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return Request{}, false
	}
	return Request{Method: parts[0], Path: parts[1]}, true
}

// WriteResponse serializes a response with a Content-Length header.
func WriteResponse(c Conn, resp Response) bool {
	head := fmt.Sprintf("HTTP/1.0 %d %s\r\nContent-Length: %d\r\nContent-Type: text/html\r\n\r\n",
		resp.Status, statusText(resp.Status), len(resp.Body))
	if !c.Write([]byte(head)) {
		return false
	}
	if len(resp.Body) == 0 {
		return true
	}
	return c.Write(resp.Body)
}

// ReadResponse parses a response, reading exactly Content-Length body bytes
// into body's storage: it is overwritten from index 0 and grown when too
// small, and the returned Body aliases it. A nil body allocates.
func ReadResponse(c Conn, body []byte) (Response, bool) {
	head, rest, ok := readUntilBlankLine(c, nil)
	if !ok {
		return Response{}, false
	}
	lines := strings.Split(head, "\r\n")
	parts := strings.Fields(lines[0])
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return Response{}, false
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil || status < 100 || status > 599 {
		return Response{}, false
	}
	length := -1
	for _, line := range lines[1:] {
		if eq := strings.IndexByte(line, ':'); eq > 0 {
			name := strings.TrimSpace(line[:eq])
			if strings.EqualFold(name, "Content-Length") {
				v, err := strconv.Atoi(strings.TrimSpace(line[eq+1:]))
				if err != nil || v < 0 || v > maxBodyBytes {
					return Response{}, false
				}
				length = v
			}
		}
	}
	if length < 0 {
		return Response{}, false
	}
	body = slices.Grow(body[:0], length)
	body = append(body, rest...)
	var buf [4096]byte
	for len(body) < length {
		n, ok := c.Read(buf[:])
		if !ok || n == 0 {
			return Response{}, false
		}
		body = append(body, buf[:n]...)
	}
	if len(body) > length {
		body = body[:length]
	}
	return Response{Status: status, Body: body}, true
}

// readUntilBlankLine reads until "\r\n\r\n", returning the header text and
// any extra bytes read past the delimiter.
func readUntilBlankLine(c Conn, initial []byte) (head string, rest []byte, ok bool) {
	data := append([]byte(nil), initial...)
	var buf [1024]byte
	for {
		if i := bytes.Index(data, headerEnd); i >= 0 {
			return string(data[:i]), data[i+4:], true
		}
		if len(data) > maxHeaderBytes {
			return "", nil, false
		}
		n, okRead := c.Read(buf[:])
		if !okRead || n == 0 {
			return "", nil, false
		}
		data = append(data, buf[:n]...)
	}
}

var headerEnd = []byte("\r\n\r\n")

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Unknown"
	}
}
