package wire

// The allocation proofs of ISSUE 8: testing.AllocsPerRun-enforced
// evidence that the wire hot path — frame read, frame write, and the
// full muxed DATA receive path into the decode pipeline — performs
// zero heap allocations per frame in steady state. These are the
// regression gates `make test` runs; any change that
// reintroduces a per-frame allocation fails here, not in a profile
// three PRs later.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"

	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// allocGen builds a deterministic generation and its digest map.
func allocGen(t testing.TB, fileID uint64, k, pieceLen int, seed int64) (*rlnc.Encoder, map[uint64]rlnc.Digest) {
	t.Helper()
	p, err := rlnc.NewParams(gf.MustNew(gf.Bits8), k, pieceLen, k*pieceLen)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, p.DataLen)
	rand.New(rand.NewSource(seed)).Read(data)
	enc, err := rlnc.NewEncoder(p, fileID, []byte("alloc-test-secret"), data)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[uint64]rlnc.Digest)
	for id := uint64(0); id < uint64(2*k); id++ {
		digests[id] = enc.Message(id).Digest()
	}
	return enc, digests
}

// TestFrameReadSteadyStateAllocs: a warmed FrameReader parses frames
// from a stream without allocating — every payload lands in a recycled
// pooled buffer.
func TestFrameReadSteadyStateAllocs(t *testing.T) {
	var stream bytes.Buffer
	payload := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		if err := WriteFrame(&stream, TypeData, payload); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewPool()
	br := bytes.NewReader(stream.Bytes())
	fr := NewFrameReaderPool(br, pool)
	cycle := func() {
		if _, err := br.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		for {
			ty, b, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil || ty != TypeData {
				t.Fatalf("frame: type %s err %v", ty, err)
			}
			b.Release()
		}
	}
	cycle() // warm the pool and the metrics counters
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("steady-state frame read allocates %v times per cycle of 64 frames, want 0", n)
	}
	checkPool(t, pool)
}

// TestFrameWriteSteadyStateAllocs: a warmed FrameWriter queues and
// flushes batches — contiguous-coalesced and vectored alike — without
// allocating.
func TestFrameWriteSteadyStateAllocs(t *testing.T) {
	pool := NewPool()
	fw := &FrameWriter{w: io.Discard, pool: pool}
	small := make([]byte, 512)
	big := make([]byte, 48<<10)
	var hdr [16]byte
	cycle := func() {
		// Coalesced batch: many control-sized frames, one Write.
		for i := 0; i < 8; i++ {
			if err := fw.Queue(TypeData, small); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		// Vectored batch: header spans + referenced payloads, one writev.
		for i := 0; i < 4; i++ {
			if err := fw.QueueSpan(TypeData, hdr[:], big); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm arena, vector and scratch capacity
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("steady-state frame write allocates %v times per cycle of 12 frames, want 0", n)
	}
	checkPool(t, pool)
}

// TestMuxedDataPathSteadyStateAllocs is the end-to-end receive proof:
// interleaved DATA frames for two generations are read from one
// stream, demultiplexed by the file-id in their headers, and fed to
// two decode pipelines via AddBytes — a complete decode of both
// generations with zero heap allocations once warm.
func TestMuxedDataPathSteadyStateAllocs(t *testing.T) {
	const k, pieceLen = 16, 512
	encA, digA := allocGen(t, 70, k, pieceLen, 5)
	encB, digB := allocGen(t, 71, k, pieceLen, 6)

	// Interleave the two streams frame by frame, as a muxed connection
	// would deliver them.
	var stream bytes.Buffer
	for id := uint64(0); id < uint64(k+4); id++ {
		for _, enc := range []*rlnc.Encoder{encA, encB} {
			buf, err := enc.Message(id).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(&stream, TypeData, buf); err != nil {
				t.Fatal(err)
			}
		}
	}

	newPipe := func(enc *rlnc.Encoder, dig map[uint64]rlnc.Digest) *rlnc.Pipeline {
		p, err := rlnc.NewPipeline(enc.Params(), enc.FileID(), []byte("alloc-test-secret"), dig,
			rlnc.PipelineConfig{Workers: 1, Verifiers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pipeA, pipeB := newPipe(encA, digA), newPipe(encB, digB)
	defer pipeA.Close()
	defer pipeB.Close()

	pool := NewPool()
	br := bytes.NewReader(stream.Bytes())
	fr := NewFrameReaderPool(br, pool)
	outA := make([]byte, encA.Params().DataLen)
	outB := make([]byte, encB.Params().DataLen)
	fidA := encA.FileID()
	cycle := func() {
		if _, err := br.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		for {
			ty, b, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil || ty != TypeData {
				t.Fatalf("frame: type %s err %v", ty, err)
			}
			target := pipeB
			if binary.BigEndian.Uint64(b.Bytes()) == fidA {
				target = pipeA
			}
			if _, err := target.AddBytes(b.Bytes()); err != nil {
				t.Fatal(err)
			}
			b.Release()
		}
		if err := pipeA.DecodeInto(outA); err != nil {
			t.Fatal(err)
		}
		if err := pipeB.DecodeInto(outB); err != nil {
			t.Fatal(err)
		}
		pipeA.Reset()
		pipeB.Reset()
	}
	cycle() // warm pools, hash state and pipeline arenas
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("steady-state muxed receive allocates %v times per double decode, want 0", n)
	}
	checkPool(t, pool)
}
