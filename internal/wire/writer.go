package wire

// FrameWriter is the batched, vectored frame writer behind every
// wire.Conn. Frames are queued — headers and small payloads are copied
// into a reused arena, larger payloads are referenced, never copied —
// and a Flush pushes the whole batch to the connection in one call: a
// single Write of the arena when the batch was all copied, one
// contiguous pooled copy for other small batches (one syscall, no
// writev setup cost), or a net.Buffers vectored write for large ones
// (writev on TCP, so a 64 KiB DATA payload goes from the store's memory
// to the socket with zero intermediate copies). Steady state allocates
// nothing.
//
// Ownership (DESIGN.md §13): Queue payloads above writerCopyMax and
// QueueSpan bodies are borrowed, and must stay valid until Flush
// returns.

import (
	"fmt"
	"io"
	"net"
)

const (
	// writerAutoFlush is the queued-byte watermark past which Queue*
	// flushes on its own, bounding arena growth and write latency.
	writerAutoFlush = 256 << 10

	// writerCoalesce is the batch size up to which Flush copies the
	// queue into one contiguous pooled buffer instead of issuing a
	// vectored write — small control frames cost one Write, not one
	// per part.
	writerCoalesce = 8 << 10

	// writerCopyMax is the largest Queue payload copied into the arena
	// rather than referenced: a control frame then costs no span.
	writerCopyMax = 256
)

// FrameWriter queues frames for one connection. Not safe for
// concurrent use: a Conn guards its writer with the write lock.
type FrameWriter struct {
	w    io.Writer
	pool *Pool // stages coalesced batches

	arena  []byte      // headers and copied bytes, in order; reset per flush
	mark   int         // arena bytes already referenced from vecs
	vecs   net.Buffers // queued spans, in write order; empty for an all-arena batch
	queued int         // total queued bytes
	first  Type        // the batch's first frame, named in write errors
}

// begin appends one frame header to the arena. Frames are counted in
// the wire metrics as they are queued: a failed write ends the
// connection, so at most its last batch is over-counted.
func (fw *FrameWriter) begin(t Type, n int) {
	if fw.queued == 0 {
		fw.first = t
	}
	fw.arena = append(fw.arena, byte(t), byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	fw.queued += 5 + n
	recordFrameSent(t, n)
}

// reference queues body by reference, after the arena bytes before it.
func (fw *FrameWriter) reference(body []byte) {
	if len(body) == 0 {
		return
	}
	if len(fw.arena) > fw.mark {
		fw.vecs = append(fw.vecs, fw.arena[fw.mark:])
		fw.mark = len(fw.arena)
	}
	fw.vecs = append(fw.vecs, body)
}

// end flushes once the queue passes the auto-flush watermark.
func (fw *FrameWriter) end() error {
	if fw.queued >= writerAutoFlush {
		return fw.Flush()
	}
	return nil
}

// Queue adds one frame. A payload above writerCopyMax is referenced,
// not copied: it must stay valid (and unmodified) until Flush returns.
func (fw *FrameWriter) Queue(t Type, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	fw.begin(t, len(payload))
	if len(payload) <= writerCopyMax {
		fw.arena = append(fw.arena, payload...)
	} else {
		fw.reference(payload)
	}
	return fw.end()
}

// QueueSpan adds one frame whose payload is head followed by body. head
// (small, typically a message header) is copied into the writer's
// arena, contiguous with the frame header; body is referenced like a
// large Queue payload. This is how a stored message is framed without
// marshaling: 16 bytes copied, the payload untouched.
func (fw *FrameWriter) QueueSpan(t Type, head, body []byte) error {
	n := len(head) + len(body)
	if n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	fw.begin(t, n)
	fw.arena = append(fw.arena, head...)
	fw.reference(body)
	return fw.end()
}

// Queued reports the bytes currently queued and unflushed.
func (fw *FrameWriter) Queued() int { return fw.queued }

// Flush writes every queued frame. The queue is reset regardless of
// the outcome (a failed connection write is fatal to the stream;
// nothing is retried).
func (fw *FrameWriter) Flush() error {
	if fw.queued == 0 {
		return nil
	}
	var err error
	switch {
	case len(fw.vecs) == 0:
		_, err = fw.w.Write(fw.arena)
	case fw.queued <= writerCoalesce:
		b := fw.pool.Get(fw.queued)
		out := b.Bytes()[:0]
		for _, v := range fw.vecs {
			out = append(out, v...)
		}
		out = append(out, fw.arena[fw.mark:]...)
		_, err = fw.w.Write(out)
		b.Release()
	default:
		if len(fw.arena) > fw.mark {
			fw.vecs = append(fw.vecs, fw.arena[fw.mark:])
		}
		// WriteTo consumes the receiver slice header (and may reslice
		// entries on partial writes): save the full header first so the
		// backing array keeps its base for reuse. The call must go
		// through the field, not a stack copy — a local net.Buffers
		// escapes into the writev call and costs one allocation per
		// flush.
		full := fw.vecs
		_, err = fw.vecs.WriteTo(fw.w)
		fw.vecs = full
	}
	if err != nil {
		err = fmt.Errorf("wire: write %s: %w", fw.first, err)
	}
	fw.arena = fw.arena[:0]
	fw.mark = 0
	fw.vecs = fw.vecs[:0]
	fw.queued = 0
	return err
}
