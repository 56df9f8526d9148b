package wire

// FrameReader is the pooled, allocation-free frame parser behind every
// wire.Conn. It buffers the underlying stream in one fixed window,
// parses length-prefixed frames out of it, and hands each payload out
// in a reference-counted *Buf drawn from its Pool — the caller owns the
// buffer and must Release it (or hand ownership on; see DESIGN.md §13).
// Frame boundaries, size limits and error classes match the unbuffered
// one-frame-per-call reader kept in the tests as an oracle, which the
// differential fuzzer pins.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// frameReaderWindow is the window a Conn draws from its pool — the
// fill buffer, plus the writer's starting arena at its tail: big enough
// to batch many small control frames per read syscall, small enough to
// sit in L2.
const frameReaderWindow = 64 << 10

// FrameReader reads frames from one stream. Not safe for concurrent
// use; a connection has exactly one reader, its Conn's.
type FrameReader struct {
	r    io.Reader
	pool *Pool
	buf  []byte // the fill window
	lo   int    // next unread byte in buf
	hi   int    // end of buffered bytes
}

// fill buffers at least need bytes, compacting the window first. A
// clean end-of-stream with nothing buffered returns io.EOF; a torn
// prefix returns io.ErrUnexpectedEOF — the same classes an io.ReadFull
// of the header yields.
func (fr *FrameReader) fill(need int) error {
	for fr.hi-fr.lo < need {
		if fr.lo > 0 {
			copy(fr.buf, fr.buf[fr.lo:fr.hi])
			fr.hi -= fr.lo
			fr.lo = 0
		}
		n, err := fr.r.Read(fr.buf[fr.hi:])
		fr.hi += n
		if fr.hi-fr.lo >= need {
			return nil
		}
		if err != nil {
			if err == io.EOF {
				if fr.hi == fr.lo {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Next reads one frame. The returned buffer holds the payload; the
// caller owns its single reference. On error no buffer is returned and
// nothing needs releasing.
func (fr *FrameReader) Next() (Type, *Buf, error) {
	if err := fr.fill(5); err != nil {
		return 0, nil, err
	}
	t := Type(fr.buf[fr.lo])
	n := int(binary.BigEndian.Uint32(fr.buf[fr.lo+1:]))
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	fr.lo += 5
	b := fr.pool.Get(n)
	have := fr.hi - fr.lo
	if have > n {
		have = n
	}
	copy(b.data[:have], fr.buf[fr.lo:fr.lo+have])
	fr.lo += have
	if have < n {
		if _, err := io.ReadFull(fr.r, b.data[have:n]); err != nil {
			b.Release()
			if err == io.EOF && have > 0 {
				// Part of the body was consumed from the buffered window,
				// so a clean end-of-stream here is a torn frame: one
				// ReadFull of the whole body would have read those bytes
				// itself and returned ErrUnexpectedEOF. With no body
				// bytes consumed, EOF passes through — the class that
				// ReadFull yields when the stream ends exactly at the
				// header.
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("wire: short frame body: %w", err)
		}
	}
	recordFrameRecv(t, n)
	return t, b, nil
}
