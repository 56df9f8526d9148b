package wire

// Fuzzing of the handshake state machines against adversarial bytes.
// The frames a fuzzer can synthesize must never panic either side,
// must never authenticate (a valid signature over a fresh random
// nonce cannot be forged), and everything a confused responder writes
// back — including its SendError rejections — must itself be
// well-formed framing.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"asymshare/internal/auth"
)

// script runs a handshake over a Conn that reads canned bytes and
// captures what the handshake writes.
func script(data []byte) (*Conn, *bytes.Buffer) {
	out := new(bytes.Buffer)
	return NewConn(&streamConn{in: bytes.NewReader(data), out: out}), out
}

func fuzzIdentity(f *testing.F) *auth.Identity {
	f.Helper()
	id, err := auth.IdentityFromSeed(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		f.Fatal(err)
	}
	return id
}

// checkWellFormedOutput verifies that out contains only complete,
// parseable frames: clean error paths must not emit torn frames.
func checkWellFormedOutput(t *testing.T, out []byte) {
	r := bytes.NewReader(out)
	for {
		if _, err := ReadFrame(r); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("handshake wrote a malformed frame: %v (output %x)", err, out)
			}
			return
		}
	}
}

func FuzzHandshakeResponder(f *testing.F) {
	id := fuzzIdentity(f)

	// Structural seeds: a plausible HELLO (and AUTH) prefix so the
	// fuzzer starts deep in the state machine rather than at frame 1.
	var hello bytes.Buffer
	h := Hello{Role: RoleUser, PubKey: id.Public(), Nonce: bytes.Repeat([]byte{9}, 32)}
	if err := WriteFrame(&hello, TypeHello, h.Marshal()); err != nil {
		f.Fatal(err)
	}
	f.Add(hello.Bytes())
	withAuth := bytes.NewBuffer(append([]byte(nil), hello.Bytes()...))
	a := AuthResponse{PubKey: id.Public(), Signature: bytes.Repeat([]byte{3}, 64)}
	if err := WriteFrame(withAuth, TypeAuthResponse, a.Marshal()); err != nil {
		f.Fatal(err)
	}
	f.Add(withAuth.Bytes())
	f.Add([]byte{})
	f.Add([]byte{byte(TypeHello), 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, out := script(data)
		defer c.Close()
		key, _, err := ResponderHandshake(c, id, nil)
		if err == nil {
			t.Fatalf("fuzzed bytes authenticated as %x", key)
		}
		if key != nil {
			t.Fatal("failed handshake still returned a key")
		}
		checkWellFormedOutput(t, out.Bytes())
	})
}

func FuzzHandshakeInitiator(f *testing.F) {
	id := fuzzIdentity(f)

	// A plausible CHALLENGE reply (wrong signature, right shape).
	var chal bytes.Buffer
	ch := Challenge{
		PubKey:    id.Public(),
		Signature: bytes.Repeat([]byte{5}, 64),
		Nonce:     bytes.Repeat([]byte{6}, 32),
	}
	if err := WriteFrame(&chal, TypeChallenge, ch.Marshal()); err != nil {
		f.Fatal(err)
	}
	f.Add(chal.Bytes())
	f.Add([]byte{})
	f.Add([]byte{byte(TypeError), 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, out := script(data)
		defer c.Close()
		key, err := InitiatorHandshake(context.Background(), c, id, RoleUser, nil)
		if err == nil {
			t.Fatalf("fuzzed responder authenticated as %x", key)
		}
		if key != nil {
			t.Fatal("failed handshake still returned a key")
		}
		checkWellFormedOutput(t, out.Bytes())
	})
}

// frameErrClass buckets a read error into the taxonomy both readers
// share: clean end-of-stream, torn frame, oversized length. Anything
// else is its own class by message.
func frameErrClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "torn"
	case errors.Is(err, ErrFrameTooLarge):
		return "oversize"
	default:
		return "other: " + err.Error()
	}
}

// fuzzSeedMux builds an interleaved muxed DATA stream: frames for two
// file IDs alternating, each payload led by its 8-byte big-endian
// stream id — the exact shape a multiplexed connection carries.
func fuzzSeedMux() []byte {
	var buf bytes.Buffer
	for i := 0; i < 4; i++ {
		for _, fid := range []byte{0xAA, 0xBB} {
			payload := append([]byte{0, 0, 0, 0, 0, 0, 0, fid}, bytes.Repeat([]byte{fid ^ byte(i)}, 24)...)
			WriteFrame(&buf, TypeData, payload)
		}
	}
	WriteFrame(&buf, TypeStop, []byte{0, 0, 0, 0, 0, 0, 0, 0xAA})
	WriteFrame(&buf, TypeStreamError, (&StreamError{FileID: 0xBB, Code: CodeUnknownFile, Reason: "x"}).Marshal())
	return buf.Bytes()
}

// fuzzSeedOverload builds the overload-control exchange: an extended
// GET_MUX carrying deadline and priority, a shed answered with BUSY /
// RETRY_AFTER, and a deadline-expired drop — the frames ISSUE 10 adds
// to the protocol.
func fuzzSeedOverload() []byte {
	var buf bytes.Buffer
	WriteFrame(&buf, TypeGetMux, (&Get{FileID: 0xAA, DeadlineMillis: 1500, Priority: 3}).Marshal())
	WriteFrame(&buf, TypeGetMux, (&Get{FileID: 0xBB, Limit: 7}).Marshal()) // legacy 12-byte form
	WriteFrame(&buf, TypeBusy, (&Busy{FileID: 0xBB, Code: CodeBusy, RetryAfterMillis: 250, Reason: "shed"}).Marshal())
	WriteFrame(&buf, TypeBusy, (&Busy{FileID: 0xAA, Code: CodeExpired, Reason: "deadline passed"}).Marshal())
	return buf.Bytes()
}

// FuzzFrameReader is the differential fuzzer of ISSUE 8: any byte
// stream, parsed by the pooled FrameReader and the ReadFrame oracle,
// must yield the identical (type, payload, error-class) sequence — and
// the reader's pool must come out of every input, malformed or not,
// with zero live buffers and zero double-releases.
func FuzzFrameReader(f *testing.F) {
	f.Add(fuzzSeedMux())
	f.Add(fuzzSeedOverload())
	f.Add([]byte{byte(TypeBusy), 0, 0, 0, 4, 1, 2, 3, 4}) // busy frame too short to parse
	f.Add([]byte{})                                       // clean EOF
	f.Add([]byte{byte(TypeData), 0, 0})                   // torn header
	f.Add([]byte{byte(TypeData), 0, 0, 0, 8, 1})          // torn body
	f.Add([]byte{byte(TypeGet), 0xFF, 0xFF, 0xFF, 0xFF})  // oversized length
	torn := fuzzSeedMux()
	f.Add(torn[:len(torn)-7]) // valid interleaving ending in a torn frame
	var big bytes.Buffer
	WriteFrame(&big, TypeData, make([]byte, 66<<10)) // larger than the fill window
	WriteFrame(&big, TypeStop, nil)
	f.Add(big.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := NewPool()
		fr := NewFrameReaderPool(bytes.NewReader(data), pool)
		legacy := bytes.NewReader(data)
		for i := 0; ; i++ {
			want, wantErr := ReadFrame(legacy)
			ty, b, err := fr.Next()
			if wc, gc := frameErrClass(wantErr), frameErrClass(err); wc != gc {
				t.Fatalf("frame %d: legacy error class %q, pooled %q (legacy err %v, pooled err %v)",
					i, wc, gc, wantErr, err)
			}
			if wantErr != nil {
				break
			}
			if ty != want.Type {
				t.Fatalf("frame %d: type %s vs legacy %s", i, ty, want.Type)
			}
			if !bytes.Equal(b.Bytes(), want.Payload) {
				t.Fatalf("frame %d: payload diverges (%d vs %d bytes)", i, b.Len(), len(want.Payload))
			}
			b.Release()
		}
		st := pool.Stats()
		if st.Live != 0 {
			t.Fatalf("pool leak: %d live buffers after input %x", st.Live, data)
		}
		if st.DoubleReleases != 0 {
			t.Fatalf("%d double-releases after input %x", st.DoubleReleases, data)
		}
	})
}
