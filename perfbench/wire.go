package main

// A Spawner wrapper for the shard probe: it times each worker from the
// Spawner call to the first line read back, each chunk from its plan
// line written on Conn.In to the chunk's last run record on Conn.Out,
// and keeps a copy of every byte the workers sent.

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"ntdts/internal/journal"
	"ntdts/internal/shard"
)

type wireTap struct {
	tr *tracer

	mu       sync.Mutex
	sessions []*tapSession
}

// tapSession is one worker connection's timing state.
type tapSession struct {
	tr *tracer

	mu        sync.Mutex
	spawn     int // open shard.spawn span (0 once the first line arrived)
	chunk     int // open shard.chunk span (0 when no chunk is outstanding)
	want, got int // run records the open chunk needs / has received
	out       bytes.Buffer
	outTail   []byte // unterminated bytes of the last Out read
	inTail    []byte // unterminated bytes of the last In write
}

func (t *wireTap) spawner(inner shard.Spawner) shard.Spawner {
	return func() (*shard.Conn, error) {
		s := &tapSession{tr: t.tr, spawn: t.tr.start("shard.spawn", 0, 0)}
		conn, err := inner()
		if err != nil {
			t.tr.end(s.spawn)
			return nil, err
		}
		t.mu.Lock()
		t.sessions = append(t.sessions, s)
		t.mu.Unlock()
		conn.In = &tapIn{WriteCloser: conn.In, s: s}
		conn.Out = &tapOut{r: conn.Out, s: s}
		return conn, nil
	}
}

// captured returns every byte the workers sent, session by session.
func (t *wireTap) captured() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []byte
	for _, s := range t.sessions {
		s.mu.Lock()
		all = append(all, s.out.Bytes()...)
		s.mu.Unlock()
	}
	return all
}

// lines splits tail+p into complete lines and the new unterminated tail.
func lines(tail, p []byte) ([][]byte, []byte) {
	buf := append(tail, p...)
	var out [][]byte
	for {
		i := bytes.IndexByte(buf, '\n')
		if i < 0 {
			return out, append([]byte(nil), buf...)
		}
		out = append(out, buf[:i])
		buf = buf[i+1:]
	}
}

var (
	planPrefix = []byte(`{"kind":"` + journal.KindPlan + `"`)
	runPrefix  = []byte(`{"kind":"` + journal.KindRun + `"`)
)

type tapIn struct {
	io.WriteCloser
	s *tapSession
}

func (w *tapIn) Write(p []byte) (int, error) {
	s := w.s
	s.mu.Lock()
	var ls [][]byte
	ls, s.inTail = lines(s.inTail, p)
	for _, l := range ls {
		if !bytes.HasPrefix(l, planPrefix) {
			continue
		}
		var plan journal.Plan
		if json.Unmarshal(l, &plan) != nil {
			continue
		}
		if s.chunk != 0 {
			s.tr.end(s.chunk)
		}
		s.chunk, s.want, s.got = s.tr.start("shard.chunk", 0, 0), len(plan.Index), 0
	}
	s.mu.Unlock()
	return w.WriteCloser.Write(p)
}

type tapOut struct {
	r io.Reader
	s *tapSession
}

func (r *tapOut) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out.Write(p[:n])
	var ls [][]byte
	ls, s.outTail = lines(s.outTail, p[:n])
	for _, l := range ls {
		if s.spawn != 0 {
			s.tr.end(s.spawn)
			s.spawn = 0
		}
		if s.chunk != 0 && bytes.HasPrefix(l, runPrefix) {
			if s.got++; s.got == s.want {
				s.tr.end(s.chunk)
				s.chunk = 0
			}
		}
	}
	return n, err
}
