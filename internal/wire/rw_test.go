package wire

// Differential coverage for the pooled framing hot path: FrameWriter
// must emit byte-identical streams to the WriteFrame oracle, and
// FrameReader must parse any stream into the same (type, payload,
// error-class) sequence the ReadFrame oracle produces. The suites run against a
// private pool and assert the teardown invariants — zero live buffers,
// zero double-releases — after every scenario.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// checkPool fails the test if the pool leaked or double-released.
func checkPool(t *testing.T, p *Pool) {
	t.Helper()
	st := p.Stats()
	if st.Live != 0 {
		t.Errorf("pool leak: %d live buffers at teardown", st.Live)
	}
	if st.DoubleReleases != 0 {
		t.Errorf("%d double-releases at teardown", st.DoubleReleases)
	}
}

// randomFrames builds a deterministic mixed batch of frames.
func randomFrames(rng *rand.Rand, n int) []Frame {
	types := []Type{TypeData, TypeGet, TypeStop, TypePutOK, TypeGetMux, TypeStreamError}
	frames := make([]Frame, n)
	for i := range frames {
		var payload []byte
		switch rng.Intn(4) {
		case 0: // empty
		case 1:
			payload = make([]byte, 1+rng.Intn(64))
		case 2:
			payload = make([]byte, 1+rng.Intn(4096))
		default:
			payload = make([]byte, 1+rng.Intn(64<<10))
		}
		rng.Read(payload)
		frames[i] = Frame{Type: types[rng.Intn(len(types))], Payload: payload}
	}
	return frames
}

// TestFrameWriterByteIdentity writes the same frame batch through the
// WriteFrame oracle and through every FrameWriter queueing mode, and
// requires bit-identical streams.
func TestFrameWriterByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	frames := randomFrames(rng, 64)

	var legacy bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&legacy, f.Type, f.Payload); err != nil {
			t.Fatal(err)
		}
	}

	pool := NewPool()
	var pooled bytes.Buffer
	fw := &FrameWriter{w: &pooled, pool: pool}
	for i, f := range frames {
		var err error
		switch i % 4 {
		case 0:
			err = fw.Queue(f.Type, f.Payload)
		case 1:
			// Split an arbitrary head off the payload, as the DATA
			// serve path does with the 16-byte message header.
			cut := len(f.Payload) / 3
			err = fw.QueueSpan(f.Type, f.Payload[:cut], f.Payload[cut:])
		case 2:
			// A head only: the whole payload copied into the arena.
			err = fw.QueueSpan(f.Type, f.Payload, nil)
		default:
			// One frame per flush, as Conn.Send writes it.
			if err = fw.Queue(f.Type, f.Payload); err == nil {
				err = fw.Flush()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), pooled.Bytes()) {
		t.Fatalf("streams diverge: legacy %d bytes, pooled %d bytes", legacy.Len(), pooled.Len())
	}
	checkPool(t, pool)
}

// TestFrameReaderMatchesReadFrame runs both readers over the same
// stream and requires the same frames in the same order.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	frames := randomFrames(rng, 48)
	var stream bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&stream, f.Type, f.Payload); err != nil {
			t.Fatal(err)
		}
	}
	raw := stream.Bytes()

	pool := NewPool()
	fr := NewFrameReaderPool(bytes.NewReader(raw), pool)
	legacy := bytes.NewReader(raw)
	for i := range frames {
		want, wantErr := ReadFrame(legacy)
		ty, b, err := fr.Next()
		if wantErr != nil || err != nil {
			t.Fatalf("frame %d: legacy err %v, pooled err %v", i, wantErr, err)
		}
		if ty != want.Type || !bytes.Equal(b.Bytes(), want.Payload) {
			t.Fatalf("frame %d diverges: %s vs %s", i, ty, want.Type)
		}
		b.Release()
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Errorf("end-of-stream error = %v, want io.EOF", err)
	}
	checkPool(t, pool)
}

// TestFrameReaderErrorClasses pins the error taxonomy shared with
// ReadFrame: clean EOF, torn header, torn body, oversized length.
func TestFrameReaderErrorClasses(t *testing.T) {
	pool := NewPool()
	cases := []struct {
		name  string
		bytes []byte
		check func(error) bool
	}{
		{"clean EOF", nil, func(err error) bool { return err == io.EOF }},
		{"torn header", []byte{byte(TypeData), 0, 0}, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"torn body", []byte{byte(TypeData), 0, 0, 0, 10, 1, 2}, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"oversized", []byte{byte(TypeData), 0xFF, 0xFF, 0xFF, 0xFF}, func(err error) bool { return errors.Is(err, ErrFrameTooLarge) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The pooled reader.
			fr := NewFrameReaderPool(bytes.NewReader(tc.bytes), pool)
			_, _, err := fr.Next()
			if !tc.check(err) {
				t.Errorf("pooled error = %v", err)
			}
			// The legacy reader must agree on the class.
			_, lerr := ReadFrame(bytes.NewReader(tc.bytes))
			if tc.check(err) != tc.check(lerr) {
				t.Errorf("legacy error = %v disagrees with pooled %v", lerr, err)
			}
		})
	}
	checkPool(t, pool)
}

// TestFrameReaderLargeFrame covers payloads bigger than the reader's
// 64 KiB fill window, which take the direct io.ReadFull path.
func TestFrameReaderLargeFrame(t *testing.T) {
	pool := NewPool()
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(payload)
	var stream bytes.Buffer
	if err := WriteFrame(&stream, TypeData, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&stream, TypeStop, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReaderPool(&stream, pool)
	ty, b, err := fr.Next()
	if err != nil || ty != TypeData || !bytes.Equal(b.Bytes(), payload) {
		t.Fatalf("large frame: type %s err %v", ty, err)
	}
	b.Release()
	ty, b, err = fr.Next()
	if err != nil || ty != TypeStop || string(b.Bytes()) != "tail" {
		t.Fatalf("frame after large: type %s err %v", ty, err)
	}
	b.Release()
	checkPool(t, pool)
}

// TestFrameWriterAutoFlush verifies that queueing past the watermark
// pushes bytes out without an explicit Flush.
func TestFrameWriterAutoFlush(t *testing.T) {
	pool := NewPool()
	var out bytes.Buffer
	fw := &FrameWriter{w: &out, pool: pool}
	payload := make([]byte, 64<<10)
	for i := 0; i < 8; i++ { // 8 × 64 KiB > writerAutoFlush
		if err := fw.Queue(TypeData, payload); err != nil {
			t.Fatal(err)
		}
	}
	if out.Len() == 0 {
		t.Fatal("nothing flushed past the auto-flush watermark")
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 8 * (5 + len(payload)); out.Len() != want {
		t.Fatalf("stream length = %d, want %d", out.Len(), want)
	}
	checkPool(t, pool)
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("broken pipe") }

// TestFrameWriterReleasesOwnedOnError: a failed flush reports the write
// error on every flush path, and the pooled buffer the writer stages a
// small batch in goes back to the pool all the same.
func TestFrameWriterReleasesOwnedOnError(t *testing.T) {
	pool := NewPool()
	fw := &FrameWriter{w: failWriter{}, pool: pool}
	body := make([]byte, writerCopyMax+1) // referenced, so the batch is staged
	for _, n := range []int{1, 100} {     // coalesced, then vectored
		for i := 0; i < n; i++ {
			if err := fw.Queue(TypeData, body); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err == nil {
			t.Fatalf("flush of %d frames on a broken writer succeeded", n)
		}
	}
	if err := fw.Queue(TypeStop, nil); err != nil { // all-arena batch
		t.Fatal(err)
	}
	if err := fw.Flush(); err == nil {
		t.Fatal("flush on a broken writer succeeded")
	}
	checkPool(t, pool)
}

// TestFrameWriterOversize mirrors the oracle's MaxFrameSize refusal in
// every queueing mode.
func TestFrameWriterOversize(t *testing.T) {
	pool := NewPool()
	var out bytes.Buffer
	fw := &FrameWriter{w: &out, pool: pool}
	big := make([]byte, MaxFrameSize+1)
	if err := fw.Queue(TypeData, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Queue error = %v", err)
	}
	if err := fw.QueueSpan(TypeData, big[:16], big[16:]); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("QueueSpan error = %v", err)
	}
	if err := fw.Flush(); err != nil || out.Len() != 0 {
		t.Errorf("refused frames still wrote %d bytes (err %v)", out.Len(), err)
	}
	checkPool(t, pool)
}

// TestFrameReaderExpect pins Conn.Expect against the Expect oracle's
// contract: a wrong type is ErrUnexpectedFrame, an ERROR frame is a
// typed *RemoteError, the wanted type is handed over.
func TestFrameReaderExpect(t *testing.T) {
	before := DefaultPool.Live()
	expect := func(stream []byte, want Type) (*Buf, error) {
		c := NewConn(&streamConn{in: bytes.NewReader(stream), out: io.Discard})
		defer c.Close()
		return c.Expect(want)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeGet, (&Get{FileID: 1}).Marshal()); err != nil {
		t.Fatal(err)
	}
	if _, err := expect(buf.Bytes(), TypeStop); !errors.Is(err, ErrUnexpectedFrame) {
		t.Errorf("wrong type error = %v", err)
	}

	buf.Reset()
	SendError(&buf, CodeUnknownFile, "nope")
	_, err := expect(buf.Bytes(), TypeData)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeUnknownFile || remote.Reason != "nope" {
		t.Errorf("remote error = %v", err)
	}

	buf.Reset()
	if err := WriteFrame(&buf, TypePutOK, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	b, err := expect(buf.Bytes(), TypePutOK)
	if err != nil || string(b.Bytes()) != "ok" {
		t.Fatalf("Expect = %v, %v", b, err)
	}
	b.Release()
	if live := DefaultPool.Live(); live != before {
		t.Fatalf("live buffers %d -> %d", before, live)
	}
}

func TestStreamErrorRoundTrip(t *testing.T) {
	e := StreamError{FileID: 0xDEADBEEF42, Code: CodeUnknownFile, Reason: "file 7"}
	var got StreamError
	if err := got.Unmarshal(e.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip = %+v, want %+v", &got, &e)
	}
	if err := got.Unmarshal(make([]byte, 9)); err == nil {
		t.Error("short stream error accepted")
	}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}
