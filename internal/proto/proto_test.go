package proto

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"harmony/internal/space"
)

func TestSpaceCodecRoundTrip(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("rows", 10, 100, 10),
		space.EnumParam("alg", "heap", "quick"),
		space.IntParam("bias", -5, 5, 1),
	)
	back, err := DecodeSpace(EncodeSpace(sp))
	if err != nil {
		t.Fatalf("DecodeSpace: %v", err)
	}
	if back.Dims() != sp.Dims() {
		t.Fatalf("dims %d != %d", back.Dims(), sp.Dims())
	}
	for i, p := range sp.Params() {
		q := back.Params()[i]
		if p.Name != q.Name || p.Kind != q.Kind || p.Levels() != q.Levels() {
			t.Errorf("param %d mismatch: %+v vs %+v", i, p, q)
		}
	}
}

func TestDecodeSpaceRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name  string
		specs []ParamSpec
	}{
		{"empty", nil},
		{"bad kind", []ParamSpec{{Name: "a", Kind: "float"}}},
		{"zero step", []ParamSpec{{Name: "a", Kind: "int", Min: 0, Max: 5}}},
		{"empty range", []ParamSpec{{Name: "a", Kind: "int", Min: 5, Max: 0, Step: 1}}},
		{"no enum values", []ParamSpec{{Name: "a", Kind: "enum"}}},
	}
	for _, c := range cases {
		if _, err := DecodeSpace(c.specs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestConnSendRecv(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Send(&Message{Type: TypeFetch, Session: "s1"})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.Type != TypeFetch || m.Session != "s1" {
		t.Errorf("got %+v", m)
	}
}

func TestConnRecvEOF(t *testing.T) {
	a, b := pipePair()
	go a.Close()
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestConnTagGenRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Send(&Message{Type: TypeReport, Session: "s1", Tag: 7, Gen: 3, Perf: 1.5})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.Tag != 7 || m.Gen != 3 {
		t.Errorf("tag/gen = %d/%d, want 7/3", m.Tag, m.Gen)
	}
}

func TestConnSetDeadline(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	// net.Pipe supports deadlines: an expired deadline fails Recv
	// promptly instead of blocking forever.
	if err := b.SetDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatalf("SetDeadline: %v", err)
	}
	if _, err := b.Recv(); err == nil {
		t.Error("expected timeout error from Recv under expired deadline")
	}
	// Streams without deadline support are a no-op, not an error.
	c := NewConn(rwcloser{strings.NewReader(""), io.Discard})
	if err := c.SetDeadline(time.Now()); err != nil {
		t.Errorf("SetDeadline on plain stream: %v", err)
	}
}

type rwcloser struct {
	io.Reader
	io.Writer
}

func (rwcloser) Close() error { return nil }

func TestConnRejectsMalformed(t *testing.T) {
	c := NewConn(rwcloser{strings.NewReader("{bogus\n"), io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Error("expected error for malformed JSON")
	}
	c = NewConn(rwcloser{strings.NewReader("{}\n"), io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Error("expected error for missing type")
	}
}

// endless is a peer that sends one JSON line that never ends, and
// counts how much of it the reader consumed.
type endless struct{ read int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	e.read += len(p)
	return len(p), nil
}

// TestConnRecvBoundsLineLength verifies that a JSON line longer than
// MaxFrame is rejected after reading little more than MaxFrame bytes,
// while a well-formed line of a few kilobytes, longer than the read
// buffer, still decodes.
func TestConnRecvBoundsLineLength(t *testing.T) {
	peer := &endless{}
	c := NewConn(rwcloser{io.MultiReader(strings.NewReader(`{"type":"fetch","app":"`), peer), io.Discard})
	_, err := c.Recv()
	if !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("oversized line: err = %v, want ErrLineTooLong", err)
	}
	if limit := MaxFrame + 64<<10; peer.read > limit {
		t.Fatalf("reader consumed %d bytes of an oversized line, want at most %d", peer.read, limit)
	}

	app := strings.Repeat("a", 10000)
	c = NewConn(rwcloser{strings.NewReader(`{"type":"fetch","app":"` + app + "\"}\n" + `{"type":"done"}` + "\n"), io.Discard})
	m, err := c.Recv()
	if err != nil || m.Type != TypeFetch || m.App != app {
		t.Fatalf("long valid line: got %+v, %v", m, err)
	}
	if m, err = c.Recv(); err != nil || m.Type != TypeDone {
		t.Fatalf("line after the long one: got %+v, %v", m, err)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("after the last line: err = %v, want io.EOF", err)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(session, app string, perf float64, conv bool) bool {
		// Line framing forbids newlines inside strings only after
		// JSON encoding, which escapes them, so any strings work.
		r, w := io.Pipe()
		c1 := NewConn(rwcloser{r, io.Discard})
		c2 := NewConn(rwcloser{strings.NewReader(""), w})
		msg := &Message{Type: TypeReport, Session: session, App: app, Perf: perf, Converged: conv}
		done := make(chan *Message, 1)
		go func() {
			m, _ := c1.Recv()
			done <- m
		}()
		if err := c2.Send(msg); err != nil {
			return false
		}
		got := <-done
		return got != nil && got.Session == session && got.App == app &&
			got.Perf == perf && got.Converged == conv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
