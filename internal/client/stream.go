package client

// Chunk streaming (Sec. III-D): because each 1 MB generation is encoded
// independently, "large files (e.g., audio or visual data) [can] be
// 'streamed' to a user in small chunks, rather than forcing the user to
// wait until the entire file contents have been downloaded". Stream
// delivers decoded chunks strictly in order while prefetching later
// chunks in the background — the fetch engine's ordered mode.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"asymshare/internal/chunk"
)

// DefaultPrefetch is how many chunks beyond the one being consumed are
// fetched concurrently.
const DefaultPrefetch = 2

// StreamOptions tunes StreamFile.
type StreamOptions struct {
	// Prefetch is the number of chunks fetched ahead of the consumer;
	// zero means DefaultPrefetch, negative means no prefetching.
	Prefetch int
}

type chunkResult struct {
	index int
	data  []byte
	stats FetchStats
	err   error
}

// Stream is an in-order sequence of decoded chunks.
type Stream struct {
	cancel  context.CancelFunc
	results chan chunkResult // closed once the engine has stopped
	next    int
	total   int
	start   time.Time

	mu    sync.Mutex
	stats FetchStats
}

// StreamFile starts fetching the manifest's chunks from the given peers
// and returns a Stream that yields them in order. It is the fetch
// engine in ordered mode: at most Prefetch+1 chunks are fetched ahead
// of the consumer, over one session per peer for the stream's life.
func (c *Client) StreamFile(ctx context.Context, addrs []string, m *chunk.Manifest,
	secret []byte, opts StreamOptions) (*Stream, error) {
	reqs, err := manifestRequests(m, secret)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, ErrNoPeers
	}
	prefetch := opts.Prefetch
	switch {
	case prefetch == 0:
		prefetch = DefaultPrefetch
	case prefetch < 0:
		prefetch = 0
	}

	streamCtx, cancel := context.WithCancel(ctx)
	s := &Stream{
		cancel:  cancel,
		results: make(chan chunkResult),
		total:   len(reqs),
		start:   time.Now(),
		stats:   FetchStats{BytesFrom: make(map[string]uint64)},
	}
	go func() {
		defer close(s.results)
		c.fetchChunks(streamCtx, reqs, staticPeers(addrs), prefetch+1, true,
			func(i int, data []byte, stats FetchStats, err error) bool {
				select {
				case s.results <- chunkResult{index: i, data: data, stats: stats, err: err}:
					return err == nil
				case <-streamCtx.Done():
					return false
				}
			})
	}()
	return s, nil
}

// Next returns the next chunk in file order. It returns io.EOF after
// the final chunk.
func (s *Stream) Next() (int, []byte, error) {
	if s.next >= s.total {
		return 0, nil, io.EOF
	}
	res, ok := <-s.results
	if !ok {
		return 0, nil, fmt.Errorf("client: stream ended at chunk %d of %d", s.next, s.total)
	}
	if res.err != nil {
		return res.index, nil, fmt.Errorf("chunk %d: %w", res.index, res.err)
	}
	s.mu.Lock()
	s.stats.add(res.stats)
	s.stats.Elapsed = time.Since(s.start)
	s.mu.Unlock()
	s.next = res.index + 1
	return res.index, res.data, nil
}

// Stats returns the accumulated fetch statistics for the chunks
// delivered so far; Elapsed runs from StreamFile to the latest one.
func (s *Stream) Stats() FetchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.BytesFrom = make(map[string]uint64, len(s.stats.BytesFrom))
	for k, v := range s.stats.BytesFrom {
		out.BytesFrom[k] = v
	}
	return out
}

// Close aborts any in-flight fetches and returns once the stream's
// sessions are closed. It is safe to call multiple times and after EOF.
func (s *Stream) Close() error {
	s.cancel()
	for range s.results { //nolint:revive // drain until the engine stops
	}
	return nil
}

// Reader adapts a Stream to io.ReadCloser for byte-oriented consumers
// (e.g. feeding a media player).
func (s *Stream) Reader() io.ReadCloser {
	return &streamReader{stream: s}
}

type streamReader struct {
	stream *Stream
	buf    []byte
	err    error
}

func (r *streamReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		_, data, err := r.stream.Next()
		if err != nil {
			r.err = err
			if errors.Is(err, io.EOF) {
				return 0, io.EOF
			}
			return 0, err
		}
		r.buf = data
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

func (r *streamReader) Close() error { return r.stream.Close() }
