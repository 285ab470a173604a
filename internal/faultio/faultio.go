// Package faultio provides fault injection for robustness tests at three
// levels: io.Reader and io.Writer wrappers for stream codecs (readers that
// fail or truncate after a byte budget, readers that flip bits mid-stream,
// writers that fail or perform short writes — the trace format's
// corruption-recovery tests are the primary consumer), a network fault
// Proxy that forwards TCP connections while injecting drops, latency,
// partial writes, and abrupt resets (the cluster router's chaos matrix is
// the primary consumer), and a server-side StallConn whose writes block as
// they do for a peer that stopped reading (the daemons' slow-reader tests),
// with the goroutine counts their leak checks settle on.
package faultio

import (
	"errors"
	"io"
)

// ErrInjected is the default error produced by the failing wrappers; tests
// can match it with errors.Is to distinguish injected faults from real ones.
var ErrInjected = errors.New("faultio: injected fault")

// errReader fails with err once n bytes have been delivered.
type errReader struct {
	r    io.Reader
	n    int64
	err  error
	done bool
}

// ErrAfter returns a reader that delivers the first n bytes of r and then
// fails every subsequent Read with err (ErrInjected if err is nil). Reads
// spanning the boundary are shortened, so the failure lands exactly at
// offset n.
func ErrAfter(r io.Reader, n int64, err error) io.Reader {
	if err == nil {
		err = ErrInjected
	}
	return &errReader{r: r, n: n, err: err}
}

// TruncateAfter returns a reader that behaves like r for the first n bytes
// and then reports a clean io.EOF, simulating a truncated file.
func TruncateAfter(r io.Reader, n int64) io.Reader {
	return &errReader{r: r, n: n, err: io.EOF}
}

func (e *errReader) Read(p []byte) (int, error) {
	if e.done || e.n <= 0 {
		e.done = true
		return 0, e.err
	}
	if int64(len(p)) > e.n {
		p = p[:e.n]
	}
	n, err := e.r.Read(p)
	e.n -= int64(n)
	if err != nil {
		e.done = true
		return n, err
	}
	return n, nil
}

// flipReader XORs mask into the byte at a fixed stream offset.
type flipReader struct {
	r      io.Reader
	off    int64
	mask   byte
	passed int64
}

// FlipBit returns a reader that passes r through unchanged except for the
// byte at stream offset off, which is XORed with mask (a single-bit mask
// flips one bit; 0xff inverts the byte). If the stream is shorter than off
// the reader is equivalent to r.
func FlipBit(r io.Reader, off int64, mask byte) io.Reader {
	return &flipReader{r: r, off: off, mask: mask}
}

func (f *flipReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 {
		if i := f.off - f.passed; i >= 0 && i < int64(n) {
			p[i] ^= f.mask
		}
		f.passed += int64(n)
	}
	return n, err
}

// errWriter accepts n bytes then fails.
type errWriter struct {
	w    io.Writer
	n    int64
	err  error
	done bool
}

// ErrAfterWriter returns a writer that accepts the first n bytes and fails
// every subsequent Write with err (ErrInjected if err is nil). A Write
// spanning the boundary is a short write: the leading bytes are written and
// the error is returned with the partial count, exercising callers' short-
// write handling.
func ErrAfterWriter(w io.Writer, n int64, err error) io.Writer {
	if err == nil {
		err = ErrInjected
	}
	return &errWriter{w: w, n: n, err: err}
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.done || e.n <= 0 {
		e.done = true
		return 0, e.err
	}
	if int64(len(p)) > e.n {
		n, err := e.w.Write(p[:e.n])
		e.n -= int64(n)
		e.done = true
		if err != nil {
			return n, err
		}
		return n, e.err
	}
	n, err := e.w.Write(p)
	e.n -= int64(n)
	if err != nil {
		e.done = true
	}
	return n, err
}

// shortWriter never accepts more than chunk bytes per call without
// reporting an error, exposing callers that ignore short-write counts.
type shortWriter struct {
	w     io.Writer
	chunk int
}

// ShortWriter returns a writer that silently truncates every Write larger
// than chunk bytes to chunk bytes, returning the short count with a nil
// error — the pathological behaviour io.Writer implementations must never
// have, which bufio and friends are expected to surface as io.ErrShortWrite.
func ShortWriter(w io.Writer, chunk int) io.Writer {
	if chunk < 1 {
		chunk = 1
	}
	return &shortWriter{w: w, chunk: chunk}
}

func (s *shortWriter) Write(p []byte) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.w.Write(p)
}
