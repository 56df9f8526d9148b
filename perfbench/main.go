// Command perfbench is asymshare's end-to-end benchmark. It boots
// storage peers in this process on loopback TCP, shares a corpus to
// them, drives one of three named workloads for a fixed window and
// prints every end-to-end metric by name with its unit, checking every
// fetched byte and every share on the way. With -trace 1 it instead
// makes a traced run and prints the per-layer metrics and the tracing
// overhead. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
//
//	go build -o perfbench . && ./perfbench -workload contended -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: remote-access, contended or bulk-rw")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 20, "length of the timed window in seconds")
		traceOn  = flag.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
		commit   = flag.String("commit", "unknown", "commit (or source digest) the binary was built from")
	)
	flag.Parse()
	sp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	st := newStamp(*commit, *seed)
	fmt.Printf("# %s seed=%d seconds=%d trace=%d %s\n", sp.name, *seed, *seconds, *traceOn, st)

	window := time.Duration(*seconds) * time.Second
	var (
		rep *report
		err error
	)
	if *traceOn == 1 {
		rep, err = runTraced(context.Background(), sp, *seed, window, *traceDir, st)
	} else {
		rep, err = runUntraced(context.Background(), sp, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	for _, m := range rep.metrics {
		fmt.Println(m)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.corrupt > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d operations failed a correctness check\n", sp.name, rep.corrupt)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stamp records where a result came from, so results can be compared
// across runs.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Network    string `json:"network"`
}

func newStamp(commit string, seed int64) stamp {
	return stamp{
		Commit: commit, GoVersion: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Network: "loopback",
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d network=%s",
		s.Commit, s.GoVersion, s.CPU, s.NProc, s.GOMAXPROCS, s.Network)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
