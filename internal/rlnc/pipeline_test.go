package rlnc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"asymshare/internal/gf"
)

// pipelineGen builds an encoder plus the owner-published digest map for
// a deterministic generation.
func pipelineGen(t testing.TB, bits uint, k, pieceLen int, seed int64) (*Encoder, map[uint64]Digest, []byte) {
	t.Helper()
	f := gf.MustNew(bits)
	p, err := NewParams(f, k, pieceLen, k*pieceLen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data := randomData(rng, p.DataLen)
	enc, err := NewEncoder(p, 7, testSecret(), data)
	if err != nil {
		t.Fatal(err)
	}
	digests := make(map[uint64]Digest)
	for id := uint64(0); id < uint64(4*k); id++ {
		digests[id] = enc.Message(id).Digest()
	}
	return enc, digests, data
}

// scrambledStream builds a deterministic message stream containing
// innovative, duplicate, corrupt, and (past rank k) redundant messages.
func scrambledStream(enc *Encoder, rng *rand.Rand, k int) []*Message {
	var msgs []*Message
	for id := uint64(0); id < uint64(2*k); id++ {
		msgs = append(msgs, enc.Message(id))
	}
	// Duplicates of a few early messages.
	for id := uint64(0); id < 4; id++ {
		msgs = append(msgs, enc.Message(id).Clone())
	}
	// Corrupted payloads and a forged message-id.
	for i := 0; i < 3; i++ {
		bad := enc.Message(uint64(i + 4)).Clone()
		bad.Payload[rng.Intn(len(bad.Payload))] ^= 0x5a
		msgs = append(msgs, bad)
	}
	unknown := enc.Message(uint64(5 * k))
	msgs = append(msgs, unknown)
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	return msgs
}

// TestRowStreamMatchesRow pins the reusable RowStream to the one-shot
// derivation: the pipeline's coefficient replay depends on them being
// byte-for-byte the same stream.
func TestRowStreamMatchesRow(t *testing.T) {
	for _, bits := range []uint{gf.Bits4, gf.Bits8, gf.Bits16} {
		f := gf.MustNew(bits)
		for _, k := range []int{1, 7, 64, 200} {
			g, err := NewCoeffGenerator(f, k, testSecret())
			if err != nil {
				t.Fatal(err)
			}
			s := g.Stream()
			row := make([]uint32, k)
			for id := uint64(0); id < 20; id++ {
				s.RowInto(9, id, row)
				want := g.Row(9, id)
				for i := range row {
					if row[i] != want[i] {
						t.Fatalf("GF(2^%d) k=%d id=%d: stream row diverges at %d: %d != %d",
							bits, k, id, i, row[i], want[i])
					}
				}
			}
		}
	}
}

// TestPipelineMatchesSequentialDecoder is the differential test from
// the acceptance criteria: the same seeded stream of innovative,
// duplicate, corrupt and redundant messages must yield byte-identical
// output and identical accounting from the parallel pipeline and the
// sequential decoder.
func TestPipelineMatchesSequentialDecoder(t *testing.T) {
	for _, bits := range []uint{gf.Bits8, gf.Bits16} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("p%d_w%d", bits, workers), func(t *testing.T) {
				k := 24
				enc, digests, data := pipelineGen(t, bits, k, 96, int64(bits)*100+int64(workers))
				rng := rand.New(rand.NewSource(42))
				msgs := scrambledStream(enc, rng, k)

				dec, err := NewDecoder(enc.Params(), enc.FileID(), testSecret(), digests)
				if err != nil {
					t.Fatal(err)
				}
				pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
					PipelineConfig{Workers: workers, SegmentBytes: 16})
				if err != nil {
					t.Fatal(err)
				}
				defer pipe.Close()

				for i, msg := range msgs {
					wantInnov, wantErr := dec.Add(msg.Clone())
					gotInnov, gotErr := pipe.Add(msg)
					if wantInnov != gotInnov {
						t.Fatalf("msg %d (id %d): innovative %v vs decoder %v",
							i, msg.MessageID, gotInnov, wantInnov)
					}
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("msg %d (id %d): err %v vs decoder %v",
							i, msg.MessageID, gotErr, wantErr)
					}
				}
				if ds, ps := dec.Stats(), pipe.Stats(); ds != ps {
					t.Fatalf("stats diverge: pipeline %+v, decoder %+v", ps, ds)
				}
				want, err := dec.Decode()
				if err != nil {
					t.Fatal(err)
				}
				got, err := pipe.Decode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("pipeline output differs from sequential decoder")
				}
				if !bytes.Equal(got, data) {
					t.Fatal("pipeline output differs from original data")
				}
				// Decode is idempotent.
				again, err := pipe.Decode()
				if err != nil || !bytes.Equal(again, want) {
					t.Fatalf("second Decode = %v (equal=%v)", err, bytes.Equal(again, want))
				}
			})
		}
	}
}

// TestPipelineConcurrentProducers races N producers feeding interleaved
// innovative, redundant, duplicate and corrupt messages and checks the
// Stats invariants hold: every message lands in exactly one bucket and
// Accepted reaches exactly k. Run under -race via `make race`.
func TestPipelineConcurrentProducers(t *testing.T) {
	const producers = 8
	k := 32
	enc, digests, data := pipelineGen(t, gf.Bits8, k, 256, 77)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
		PipelineConfig{Workers: 2, Verifiers: 4, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	var wg sync.WaitGroup
	sent := 0
	for pr := 0; pr < producers; pr++ {
		rng := rand.New(rand.NewSource(int64(1000 + pr)))
		msgs := scrambledStream(enc, rng, k)
		sent += len(msgs)
		wg.Add(1)
		go func(msgs []*Message) {
			defer wg.Done()
			for _, msg := range msgs {
				if _, err := pipe.Add(msg); err != nil {
					// Bad digests and wrong ids are part of the stream;
					// only unexpected errors matter.
					continue
				}
			}
		}(msgs)
	}
	wg.Wait()

	st := pipe.Stats()
	if st.Received != sent {
		t.Errorf("received %d, sent %d", st.Received, sent)
	}
	if got := st.Accepted + st.Rejected + st.Duplicate + st.Redundant; got != st.Received {
		t.Errorf("buckets sum to %d, received %d (%+v)", got, st.Received, st)
	}
	if st.Accepted != k {
		t.Errorf("accepted %d, want exactly %d", st.Accepted, k)
	}
	if !pipe.Done() || pipe.Rank() != k {
		t.Fatalf("rank %d, done %v", pipe.Rank(), pipe.Done())
	}
	got, err := pipe.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("concurrent decode mismatch")
	}
	tel := pipe.Telemetry()
	if tel.Jobs == 0 || tel.EliminatedBytes == 0 {
		t.Errorf("telemetry not recording: %+v", tel)
	}
}

// TestPipelineReset decodes two generations' worth of streams through
// one engine, exercising buffer recycling.
func TestPipelineReset(t *testing.T) {
	k := 16
	enc, digests, data := pipelineGen(t, gf.Bits8, k, 64, 5)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
		PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	out := make([]byte, enc.Params().DataLen)
	for round := 0; round < 3; round++ {
		for id := uint64(0); pipe.Rank() < k; id++ {
			if _, err := pipe.Add(enc.Message(id)); err != nil {
				t.Fatal(err)
			}
		}
		if err := pipe.DecodeInto(out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round %d: decode mismatch", round)
		}
		pipe.Reset()
		if pipe.Rank() != 0 || pipe.Done() {
			t.Fatal("reset did not clear rank")
		}
		if st := pipe.Stats(); st != (Stats{}) {
			t.Fatalf("reset did not clear stats: %+v", st)
		}
	}
}

// TestPipelineErrors pins the error surface: wrong file, bad payload
// length, forged digests, decode before rank k, use after Close.
func TestPipelineErrors(t *testing.T) {
	k := 8
	enc, digests, _ := pipelineGen(t, gf.Bits8, k, 32, 9)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
		PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := pipe.Decode(); err == nil {
		t.Error("early Decode succeeded")
	}
	wrong := enc.Message(0).Clone()
	wrong.FileID++
	if _, err := pipe.Add(wrong); err == nil {
		t.Error("wrong-file message accepted")
	}
	short := enc.Message(0).Clone()
	short.Payload = short.Payload[:4]
	if _, err := pipe.Add(short); err == nil {
		t.Error("short payload accepted")
	}
	forged := enc.Message(1).Clone()
	forged.Payload[0] ^= 1
	if _, err := pipe.Add(forged); err == nil {
		t.Error("forged payload accepted")
	}
	st := pipe.Stats()
	if st.Received != 3 || st.Rejected != 3 {
		t.Errorf("stats after rejects: %+v", st)
	}

	pipe.Close()
	pipe.Close() // idempotent
	if _, err := pipe.Add(enc.Message(0)); err == nil {
		t.Error("Add after Close succeeded")
	}
	if _, err := pipe.Decode(); err == nil {
		t.Error("Decode after Close succeeded")
	}
}

// TestPipelineSteadyStateAllocs is the acceptance-criteria benchmark
// assertion: once warmed up, a full feed-decode-reset cycle performs
// zero heap allocations per accepted message (same pattern as
// internal/metrics' TestHotPathAllocFree).
func TestPipelineSteadyStateAllocs(t *testing.T) {
	k := 16
	enc, digests, _ := pipelineGen(t, gf.Bits8, k, 512, 13)
	pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), digests,
		PipelineConfig{Workers: 1, Verifiers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	msgs := make([]*Message, 0, 2*k)
	for id := uint64(0); id < uint64(2*k); id++ {
		msgs = append(msgs, enc.Message(id))
	}
	out := make([]byte, enc.Params().DataLen)
	cycle := func() {
		for _, msg := range msgs {
			if _, err := pipe.Add(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := pipe.DecodeInto(out); err != nil {
			t.Fatal(err)
		}
		pipe.Reset()
	}
	cycle() // warm up lazy hash state and map buckets
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("steady-state decode allocates %v times per cycle, want 0", n)
	}
}

// benchPipelineDecode measures full-generation decode throughput
// (bytes of recovered data per second) for one engine.
func benchDecode(b *testing.B, k, pieceLen int, pipeline bool) {
	enc, _, _ := pipelineGen(b, gf.Bits8, k, pieceLen, 21)
	msgs := make([]*Message, 0, k+4)
	for id := uint64(0); id < uint64(k+4); id++ {
		msgs = append(msgs, enc.Message(id))
	}
	out := make([]byte, enc.Params().DataLen)
	b.SetBytes(int64(enc.Params().DataLen))
	b.ResetTimer()
	if pipeline {
		pipe, err := NewPipeline(enc.Params(), enc.FileID(), testSecret(), nil, PipelineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer pipe.Close()
		for i := 0; i < b.N; i++ {
			for _, msg := range msgs {
				if pipe.Done() {
					break
				}
				if _, err := pipe.Add(msg); err != nil {
					b.Fatal(err)
				}
			}
			if err := pipe.DecodeInto(out); err != nil {
				b.Fatal(err)
			}
			pipe.Reset()
		}
		return
	}
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(enc.Params(), enc.FileID(), testSecret(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, msg := range msgs {
			if dec.Done() {
				break
			}
			if _, err := dec.Add(msg); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// 1 MiB generation at k=64: the acceptance-criteria configuration.
func BenchmarkDecodeSequential(b *testing.B) { benchDecode(b, 64, 1<<20/64, false) }
func BenchmarkDecodePipeline(b *testing.B)   { benchDecode(b, 64, 1<<20/64, true) }
