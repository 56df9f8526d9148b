package wire

// Test oracles: the unbuffered one-frame-per-call reader and writer the
// pooled FrameReader and FrameWriter replaced. They are the reference
// the differential suites and fuzzers hold the production path to —
// frame boundaries, size limits, error classes and byte identity — and
// a convenient way for tests to script raw frames onto a stream.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Frame is one parsed frame, its payload owned by the caller.
type Frame struct {
	Type    Type
	Payload []byte
}

// WriteFrame writes one frame — 1-byte type, 4-byte big-endian payload
// length, payload — in a single Write.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	buf := make([]byte, 5+len(payload))
	buf[0] = byte(t)
	binary.BigEndian.PutUint32(buf[1:], uint32(len(payload)))
	copy(buf[5:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write %s: %w", t, err)
	}
	recordFrameSent(t, len(payload))
	return nil
}

// ReadFrame reads one frame from r into a freshly allocated payload.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: short frame body: %w", err)
	}
	recordFrameRecv(Type(hdr[0]), len(payload))
	return Frame{Type: Type(hdr[0]), Payload: payload}, nil
}

// Expect reads one frame and verifies its type, translating TypeError
// frames into *RemoteError.
func Expect(r io.Reader, want Type) (Frame, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return Frame{}, err
	}
	if f.Type == TypeError {
		var e ErrorMsg
		if uerr := e.Unmarshal(f.Payload); uerr == nil {
			return Frame{}, &RemoteError{Code: e.Code, Reason: e.Reason}
		}
		return Frame{}, fmt.Errorf("%w: undecodable remote error", ErrBadFrame)
	}
	if f.Type != want {
		return Frame{}, fmt.Errorf("%w: got %s, want %s", ErrUnexpectedFrame, f.Type, want)
	}
	return f, nil
}

// SendError writes an ErrorMsg frame with WriteFrame.
func SendError(w io.Writer, code uint16, reason string) error {
	msg := ErrorMsg{Code: code, Reason: reason}
	return WriteFrame(w, TypeError, msg.Marshal())
}

// SendBusy writes a Busy frame with WriteFrame.
func SendBusy(w io.Writer, fileID uint64, code uint16, retryAfterMillis uint32, reason string) error {
	msg := Busy{FileID: fileID, Code: code, RetryAfterMillis: retryAfterMillis, Reason: reason}
	return WriteFrame(w, TypeBusy, msg.Marshal())
}

// NewFrameReaderPool returns a FrameReader over r with a private window
// and payload pool (tests use private pools for leak accounting).
func NewFrameReaderPool(r io.Reader, pool *Pool) *FrameReader {
	return &FrameReader{r: r, pool: pool, buf: make([]byte, frameReaderWindow)}
}

// streamConn is a net.Conn over an in-memory script: reads come from
// in, writes land in out, deadlines are accepted and ignored. It lets a
// Conn run against canned bytes.
type streamConn struct {
	in  io.Reader
	out io.Writer
}

func (s *streamConn) Read(p []byte) (int, error)       { return s.in.Read(p) }
func (s *streamConn) Write(p []byte) (int, error)      { return s.out.Write(p) }
func (s *streamConn) Close() error                     { return nil }
func (s *streamConn) LocalAddr() net.Addr              { return nil }
func (s *streamConn) RemoteAddr() net.Addr             { return nil }
func (s *streamConn) SetDeadline(time.Time) error      { return nil }
func (s *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (s *streamConn) SetWriteDeadline(time.Time) error { return nil }
