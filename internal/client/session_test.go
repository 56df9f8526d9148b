package client_test

// PeerSession coverage: many concurrent generation streams over one
// connection, and — the regression ISSUE 8 pins — failure scoping: an
// error on one multiplexed stream (unknown file, bad parameters) must
// kill only that stream, leaving every other stream on the connection
// to complete.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"asymshare/internal/chunk"
	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
	"asymshare/internal/wire"
)

// fetchChunk downloads one generation over the session into a fresh
// pipeline and decodes it.
func fetchChunk(ctx context.Context, s *client.PeerSession, info chunk.ChunkInfo, plan chunk.Plan) ([]byte, error) {
	params, err := info.Params(plan)
	if err != nil {
		return nil, err
	}
	pipe, err := rlnc.NewPipeline(params, info.FileID, testSecret(), info.Digests, rlnc.PipelineConfig{})
	if err != nil {
		return nil, err
	}
	defer pipe.Close()
	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := s.FetchStream(streamCtx, client.StreamRequest{FileID: info.FileID}, pipe, nil); err != nil {
		return nil, err
	}
	return pipe.Decode()
}

// TestPeerSessionMuxedFetch downloads every chunk of a manifest
// concurrently over ONE connection and reassembles the file.
func TestPeerSessionMuxedFetch(t *testing.T) {
	c, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("zero copy all the way down "), 200) // several chunks
	m, addrs := buildAndDisseminate(t, c, data, 1)
	if len(m.Chunks) < 2 {
		t.Fatalf("want a multi-chunk manifest, got %d chunks", len(m.Chunks))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	s, err := c.NewPeerSession(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pieces := make([][]byte, len(m.Chunks))
	errs := make([]error, len(m.Chunks))
	var wg sync.WaitGroup
	for i, info := range m.Chunks {
		wg.Add(1)
		go func(i int, info chunk.ChunkInfo) {
			defer wg.Done()
			pieces[i], errs[i] = fetchChunk(ctx, s, info, m.Plan)
		}(i, info)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	got, err := chunk.Assemble(m, pieces)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("assembled file diverges from original")
	}
}

// TestPeerSessionStreamErrorIsolation is the satellite-4 regression: a
// stream refused with STREAM_ERROR (unknown file) must surface a
// *wire.RemoteError on that stream only — the connection stays up and
// a concurrent valid stream, plus further streams opened afterwards,
// complete normally.
func TestPeerSessionStreamErrorIsolation(t *testing.T) {
	c, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("isolation "), 300)
	m, addrs := buildAndDisseminate(t, c, data, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	s, err := c.NewPeerSession(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A valid stream and a doomed one race on the same connection.
	valid := m.Chunks[0]
	var (
		wg       sync.WaitGroup
		goodData []byte
		goodErr  error
		badErr   error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		goodData, goodErr = fetchChunk(ctx, s, valid, m.Plan)
	}()
	go func() {
		defer wg.Done()
		params, err := valid.Params(m.Plan)
		if err != nil {
			badErr = err
			return
		}
		const bogusFile = 0xBAD0BAD0
		pipe, err := rlnc.NewPipeline(params, bogusFile, testSecret(), nil, rlnc.PipelineConfig{})
		if err != nil {
			badErr = err
			return
		}
		defer pipe.Close()
		badErr = s.FetchStream(ctx, client.StreamRequest{FileID: bogusFile}, pipe, nil)
	}()
	wg.Wait()

	var remote *wire.RemoteError
	if !errors.As(badErr, &remote) || remote.Code != wire.CodeUnknownFile {
		t.Fatalf("doomed stream error = %v, want RemoteError{CodeUnknownFile}", badErr)
	}
	if goodErr != nil {
		t.Fatalf("valid stream died alongside the doomed one: %v", goodErr)
	}
	want, err := valid.Params(m.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(goodData) != want.DataLen {
		t.Fatalf("valid stream decoded %d bytes, want %d", len(goodData), want.DataLen)
	}

	// The connection must still serve new streams after the failure.
	after, err := fetchChunk(ctx, s, m.Chunks[len(m.Chunks)-1], m.Plan)
	if err != nil {
		t.Fatalf("stream opened after a stream error failed: %v", err)
	}
	if len(after) == 0 {
		t.Fatal("empty decode")
	}
}

// TestPeerSessionVerificationErrorIsolation: a stream whose messages
// fail validation (wrong payload length for its parameters) dies with
// that error — and only that stream; a concurrent valid stream on the
// same connection completes.
func TestPeerSessionVerificationErrorIsolation(t *testing.T) {
	c, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("verify me "), 400)
	m, addrs := buildAndDisseminate(t, c, data, 1)
	if len(m.Chunks) < 2 {
		t.Fatalf("want ≥2 chunks, got %d", len(m.Chunks))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	s, err := c.NewPeerSession(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Stream B asks for a real generation but decodes it with the wrong
	// parameters, so every received message fails validation.
	wrongParams, err := rlnc.NewParams(gf.MustNew(gf.Bits8), 4, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		goodData []byte
		goodErr  error
		badErr   error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		goodData, goodErr = fetchChunk(ctx, s, m.Chunks[0], m.Plan)
	}()
	go func() {
		defer wg.Done()
		pipe, err := rlnc.NewPipeline(wrongParams, m.Chunks[1].FileID, testSecret(), nil, rlnc.PipelineConfig{})
		if err != nil {
			badErr = err
			return
		}
		defer pipe.Close()
		badErr = s.FetchStream(ctx, client.StreamRequest{FileID: m.Chunks[1].FileID}, pipe, nil)
	}()
	wg.Wait()

	if !errors.Is(badErr, rlnc.ErrBadParams) {
		t.Fatalf("mis-parameterized stream error = %v, want ErrBadParams", badErr)
	}
	if goodErr != nil {
		t.Fatalf("valid stream died alongside the failing one: %v", goodErr)
	}
	if len(goodData) == 0 {
		t.Fatal("empty decode on the valid stream")
	}
}

// TestPeerSessionClosed: FetchStream on a closed session fails fast instead
// of hanging.
func TestPeerSessionClosed(t *testing.T) {
	c, err := client.New(identity(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("close "), 200)
	m, addrs := buildAndDisseminate(t, c, data, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, err := c.NewPeerSession(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := fetchChunk(ctx, s, m.Chunks[0], m.Plan); err == nil {
		t.Fatal("fetch on closed session succeeded")
	}
}
