package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func TestSurvivorsReportsRunningGoroutineUntilItExits(t *testing.T) {
	before := ids(stacks())
	stop := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		<-stop
	}()
	leaked := survivors(before, 20*time.Millisecond)
	if len(leaked) != 1 || !strings.Contains(leaked[0], "TestSurvivorsReportsRunningGoroutineUntilItExits") {
		t.Fatalf("leaked = %q, want the one blocked goroutine", leaked)
	}
	close(stop)
	<-exited
	if leaked := survivors(before, time.Second); len(leaked) != 0 {
		t.Fatalf("after exit, leaked = %q", leaked)
	}
}
