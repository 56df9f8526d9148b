// Package leakcheck fails a test binary that leaves goroutines running
// after its tests return. It is imported only from _test.go files:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After m.Run it compares the goroutine stacks against those alive
// before the tests started and, once a short grace period has let
// exiting goroutines finish, reports every new one with its stack.
package leakcheck

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace bounds how long goroutines that are already on their way out
// (a closed listener's accept loop, a timer's last callback) may take
// to finish after the tests return.
const grace = 5 * time.Second

// Main runs the tests and exits with their status, or with 1 when they
// passed but leaked goroutines. A fuzzing run (-test.fuzz) is not
// checked: the fuzzing engine keeps goroutines of its own, such as its
// signal handler, running after m.Run.
func Main(m *testing.M) {
	before := ids(stacks())
	code := m.Run()
	if code == 0 && !fuzzing() {
		if leaked := survivors(before, grace); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still running after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// survivors polls until every goroutine other than the caller's and those
// whose ids are in before has exited, or until wait has passed, and
// returns the stacks of the goroutines still running.
func survivors(before map[string]bool, wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for delay := time.Millisecond; ; delay = min(2*delay, 100*time.Millisecond) {
		var leaked []string
		for i, g := range stacks() {
			if i == 0 || before[goroutineID(g)] {
				continue // the caller's own goroutine comes first
			}
			leaked = append(leaked, g)
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(delay)
	}
}

// stacks returns one stack trace per goroutine, the caller's first.
func stacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Split(string(bytes.TrimSpace(buf)), "\n\n")
}

func ids(gs []string) map[string]bool {
	m := make(map[string]bool, len(gs))
	for _, g := range gs {
		m[goroutineID(g)] = true
	}
	return m
}

// goroutineID returns the id field of a "goroutine 42 [running]:"
// header.
func goroutineID(g string) string {
	f := strings.Fields(g)
	if len(f) < 2 {
		return ""
	}
	return f[1]
}

// fuzzing reports whether the test binary runs as a fuzzing coordinator
// or worker.
func fuzzing() bool {
	f := flag.Lookup("test.fuzz")
	return f != nil && f.Value.String() != ""
}
