// Command benchwire measures the zero-copy wire hot path end to end:
// a real peer.Node serving generations over loopback TCP to the
// multiplexed client session, decoded by the parallel rlnc pipeline.
// For every (generation size x concurrent streams x pipeline workers)
// cell it reports three numbers: the decode-pipeline ceiling (AddBytes
// fed straight from memory, no network), the transport-only throughput
// (the same muxed fetch into a counting sink: framing, syscalls,
// demux, pool traffic, no decode), and the full loopback wire fetch.
// The fetch is scored against the achievable composite — on a
// multi-core machine transport and decode overlap, so the slower of
// the two bounds it (the "within 10% of the decode ceiling" claim of
// DESIGN.md §13); on one core their costs add. -gate turns that score
// into an exit code: below the threshold the run fails, which is how
// `make bench-wire` pins the claim.
//
// Usage:
//
//	benchwire [-sizes n,n] [-streams n,n] [-workers n,n] [-k n]
//	          [-reps n] [-json FILE] [-gate ratio]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"asymshare/internal/auth"
	"asymshare/internal/client"
	"asymshare/internal/gf"
	"asymshare/internal/peer"
	"asymshare/internal/rlnc"
	"asymshare/internal/store"
)

// wireCell is one benchmark measurement.
type wireCell struct {
	Op          string  `json:"op"` // decode-ceiling | transport-only | wire-fetch
	SizeBytes   int     `json:"size_bytes"`
	Streams     int     `json:"streams"`
	Workers     int     `json:"workers"`
	K           int     `json:"k"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Ratio       float64 `json:"ratio,omitempty"`      // wire-fetch: vs decode ceiling
	Achievable  float64 `json:"achievable,omitempty"` // wire-fetch: vs composite (gated)
}

// countSink is a ByteSink that verifies nothing and decodes nothing —
// it just counts, so a fetch through it measures the pure transport
// path: framing, syscalls, demux, pool traffic.
type countSink struct {
	mu    sync.Mutex
	bytes int64
	k     int
	seen  int
}

func (c *countSink) Add(msg *rlnc.Message) (bool, error) { return c.addN(len(msg.Payload)) }
func (c *countSink) AddBytes(data []byte) (bool, error)  { return c.addN(len(data)) }
func (c *countSink) addN(n int) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += int64(n)
	c.seen++
	return true, nil
}
func (c *countSink) Rank() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen
}
func (c *countSink) Done() bool        { return false } // drain the whole stream
func (c *countSink) Stats() rlnc.Stats { return rlnc.Stats{} }

// wireReport is the BENCH_wire.json schema, sibling to BENCH_rlnc.json.
type wireReport struct {
	Reps   int        `json:"reps"`
	GOOS   string     `json:"goos"`
	GOARCH string     `json:"goarch"`
	Cells  []wireCell `json:"cells"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchwire:", err)
		os.Exit(1)
	}
}

// intList parses a comma-separated list of positive integers.
func intList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad list entry %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

// measure times fn over reps runs after one untimed warmup, reporting
// mean ns/op and per-op heap traffic across every goroutine.
func measure(reps int, fn func() error) (nsPerOp float64, bytesPerOp, allocsPerOp int64, err error) {
	if err = fn(); err != nil { // warm caches, pools, hash state
		return
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < reps; r++ {
		if err = fn(); err != nil {
			return
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(reps)
	bytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / int64(reps)
	allocsPerOp = int64(after.Mallocs-before.Mallocs) / int64(reps)
	return
}

// generation is one seeded file on the bench peer.
type generation struct {
	fileID  uint64
	params  rlnc.Params
	data    []byte
	digests map[uint64]rlnc.Digest
	frames  [][]byte // pre-marshaled messages, for the ceiling run
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchwire", flag.ContinueOnError)
	sizesFlag := fs.String("sizes", "1048576", "comma-separated generation sizes in bytes")
	streamsFlag := fs.String("streams", "1,4", "comma-separated concurrent stream counts per connection")
	workersFlag := fs.String("workers", "0", "comma-separated pipeline worker counts (0 = auto)")
	k := fs.Int("k", 64, "messages per generation")
	reps := fs.Int("reps", 3, "timed runs per cell after one warmup")
	jsonPath := fs.String("json", "", "also write the JSON report here")
	gate := fs.Float64("gate", 0, "fail unless every wire-fetch cell reaches this fraction of the achievable composite throughput (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := intList(*sizesFlag)
	if err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	streamsList, err := intList(*streamsFlag)
	if err != nil {
		return fmt.Errorf("-streams: %w", err)
	}
	workersList, err := intList(*workersFlag)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	if *k <= 0 || *reps <= 0 {
		return fmt.Errorf("k and reps must be positive")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// One peer node over real loopback TCP serves every cell.
	peerID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{2}, 32))
	if err != nil {
		return err
	}
	node, err := peer.New(peer.Config{Identity: peerID, Store: store.NewMemory()})
	if err != nil {
		return err
	}
	if err := node.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer node.Close()

	userID, err := auth.IdentityFromSeed(bytes.Repeat([]byte{3}, 32))
	if err != nil {
		return err
	}
	cl, err := client.New(userID, nil)
	if err != nil {
		return err
	}
	secret := bytes.Repeat([]byte{9}, rlnc.SecretLen)

	report := wireReport{Reps: *reps, GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	fmt.Fprintf(out, "# Wire hot-path benchmarks: loopback muxed fetch vs decode ceiling (mean of %d)\n", *reps)
	fmt.Fprintf(out, "%-16s %9s %8s %8s %12s %10s %7s\n",
		"op", "size", "streams", "workers", "ns/op", "MB/s", "ratio")

	var nextFile uint64 = 100
	gateFailed := false
	for _, size := range sizes {
		for _, nStreams := range streamsList {
			// Seed nStreams fresh generations on the peer.
			gens := make([]*generation, nStreams)
			for i := range gens {
				g, err := seedGeneration(ctx, cl, node.Addr().String(), nextFile, *k, size, secret)
				if err != nil {
					return err
				}
				nextFile++
				gens[i] = g
			}
			// Transport-only: the same muxed fetch through a sink that
			// counts instead of decoding — the pure wire cost of moving
			// the bytes (independent of the workers axis).
			session, err := cl.NewPeerSession(ctx, node.Addr().String())
			if err != nil {
				return err
			}
			transNs, transB, transA, err := measure(*reps, func() error {
				return transportOnly(ctx, session, gens)
			})
			session.Close()
			if err != nil {
				return fmt.Errorf("transport size=%d streams=%d: %w", size, nStreams, err)
			}
			totalMB := float64(size*nStreams) / (1 << 20)
			transMBs := totalMB / (transNs / 1e9)
			report.Cells = append(report.Cells, wireCell{
				Op: "transport-only", SizeBytes: size, Streams: nStreams,
				K: *k, NsPerOp: transNs, MBPerSec: transMBs,
				BytesPerOp: transB, AllocsPerOp: transA,
			})
			fmt.Fprintf(out, "%-16s %9d %8d %8s %12.0f %10.1f %7s\n",
				"transport-only", size, nStreams, "-", transNs, transMBs, "-")

			for _, workers := range workersList {
				cfg := rlnc.PipelineConfig{Workers: workers}

				ceilNs, ceilB, ceilA, err := measure(*reps, func() error {
					return decodeCeiling(gens, secret, cfg)
				})
				if err != nil {
					return fmt.Errorf("ceiling size=%d streams=%d: %w", size, nStreams, err)
				}
				ceilMBs := totalMB / (ceilNs / 1e9)
				report.Cells = append(report.Cells, wireCell{
					Op: "decode-ceiling", SizeBytes: size, Streams: nStreams,
					Workers: workers, K: *k, NsPerOp: ceilNs, MBPerSec: ceilMBs,
					BytesPerOp: ceilB, AllocsPerOp: ceilA,
				})
				fmt.Fprintf(out, "%-16s %9d %8d %8d %12.0f %10.1f %7s\n",
					"decode-ceiling", size, nStreams, workers, ceilNs, ceilMBs, "-")

				session, err := cl.NewPeerSession(ctx, node.Addr().String())
				if err != nil {
					return err
				}
				wireNs, wireB, wireA, err := measure(*reps, func() error {
					return wireFetch(ctx, session, gens, secret, cfg)
				})
				session.Close()
				if err != nil {
					return fmt.Errorf("wire fetch size=%d streams=%d: %w", size, nStreams, err)
				}
				wireMBs := totalMB / (wireNs / 1e9)
				ratio := wireMBs / ceilMBs
				// The achievable composite: on one core the serve/transport
				// work and the decode share the CPU, so their costs add; with
				// spare cores they overlap and the slower one is the bound.
				expectNs := ceilNs
				if transNs > expectNs {
					expectNs = transNs
				}
				if runtime.GOMAXPROCS(0) == 1 {
					expectNs = ceilNs + transNs
				}
				achievable := expectNs / wireNs
				report.Cells = append(report.Cells, wireCell{
					Op: "wire-fetch", SizeBytes: size, Streams: nStreams,
					Workers: workers, K: *k, NsPerOp: wireNs, MBPerSec: wireMBs,
					BytesPerOp: wireB, AllocsPerOp: wireA,
					Ratio: ratio, Achievable: achievable,
				})
				fmt.Fprintf(out, "%-16s %9d %8d %8d %12.0f %10.1f %7.2f (%.2f of achievable)\n",
					"wire-fetch", size, nStreams, workers, wireNs, wireMBs, ratio, achievable)
				if *gate > 0 && achievable < *gate {
					gateFailed = true
					fmt.Fprintf(out, "GATE FAIL: size=%d streams=%d workers=%d %.2f of achievable < %.2f\n",
						size, nStreams, workers, achievable, *gate)
				}
			}
		}
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	if gateFailed {
		return fmt.Errorf("throughput gate %.2f not met", *gate)
	}
	return nil
}

// seedGeneration encodes size bytes into one generation, disseminates
// k+8 messages to the peer, and pre-marshals frames for the ceiling run.
func seedGeneration(ctx context.Context, cl *client.Client, addr string, fileID uint64, k, size int, secret []byte) (*generation, error) {
	params, err := rlnc.NewParams(gf.MustNew(gf.Bits8), k, size/k, size)
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(int64(fileID))).Read(data)
	enc, err := rlnc.NewEncoder(params, fileID, secret, data)
	if err != nil {
		return nil, err
	}
	g := &generation{
		fileID:  fileID,
		params:  params,
		data:    data,
		digests: make(map[uint64]rlnc.Digest),
	}
	msgs := make([]*rlnc.Message, k+8)
	for i := range msgs {
		msgs[i] = enc.Message(uint64(i))
		g.digests[uint64(i)] = msgs[i].Digest()
		frame, err := msgs[i].MarshalBinary()
		if err != nil {
			return nil, err
		}
		g.frames = append(g.frames, frame)
	}
	if err := cl.Disseminate(ctx, addr, msgs); err != nil {
		return nil, fmt.Errorf("disseminate %d: %w", fileID, err)
	}
	return g, nil
}

// decodeCeiling runs the pure pipeline decode for every generation:
// pre-marshaled frames fed through AddBytes, no network.
func decodeCeiling(gens []*generation, secret []byte, cfg rlnc.PipelineConfig) error {
	var wg sync.WaitGroup
	errs := make([]error, len(gens))
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g *generation) {
			defer wg.Done()
			errs[i] = func() error {
				pipe, err := rlnc.NewPipeline(g.params, g.fileID, secret, g.digests, cfg)
				if err != nil {
					return err
				}
				defer pipe.Close()
				for _, frame := range g.frames {
					if _, err := pipe.AddBytes(frame); err != nil {
						return err
					}
					if pipe.Done() {
						break
					}
				}
				got, err := pipe.Decode()
				if err != nil {
					return err
				}
				if !bytes.Equal(got, g.data) {
					return fmt.Errorf("file %d: ceiling decode diverges", g.fileID)
				}
				return nil
			}()
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// transportOnly pulls every generation concurrently over one muxed
// session into counting sinks — no verification, no decode — and
// checks that every byte arrived.
func transportOnly(ctx context.Context, s *client.PeerSession, gens []*generation) error {
	var wg sync.WaitGroup
	errs := make([]error, len(gens))
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g *generation) {
			defer wg.Done()
			sink := &countSink{k: g.params.K}
			fetchCtx, cancel := context.WithCancel(ctx)
			defer cancel()
			if err := s.FetchStream(fetchCtx, client.StreamRequest{FileID: g.fileID}, sink, nil); err != nil {
				errs[i] = err
				return
			}
			var want int64
			for _, f := range g.frames {
				want += int64(len(f))
			}
			if sink.bytes != want {
				errs[i] = fmt.Errorf("file %d: transported %d bytes, want %d", g.fileID, sink.bytes, want)
			}
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wireFetch pulls every generation concurrently over one multiplexed
// session and verifies the decoded bytes.
func wireFetch(ctx context.Context, s *client.PeerSession, gens []*generation, secret []byte, cfg rlnc.PipelineConfig) error {
	var wg sync.WaitGroup
	errs := make([]error, len(gens))
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g *generation) {
			defer wg.Done()
			errs[i] = func() error {
				pipe, err := rlnc.NewPipeline(g.params, g.fileID, secret, g.digests, cfg)
				if err != nil {
					return err
				}
				defer pipe.Close()
				fetchCtx, cancel := context.WithCancel(ctx)
				defer cancel()
				if err := s.FetchStream(fetchCtx, client.StreamRequest{FileID: g.fileID}, pipe, nil); err != nil {
					return err
				}
				got, err := pipe.Decode()
				if err != nil {
					return err
				}
				if !bytes.Equal(got, g.data) {
					return fmt.Errorf("file %d: wire decode diverges", g.fileID)
				}
				return nil
			}()
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
