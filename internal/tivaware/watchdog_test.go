package tivaware

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// hangWatchdog fails the test binary unless stop is called within d:
// it prints every goroutine's stack and panics. A lock taken out of
// order deadlocks its goroutines for good, often the test's own, and go
// test's timeout would wait ten minutes; the watchdog turns the hang
// into a failure with the waiting locks on screen.
func hangWatchdog(t *testing.T, d time.Duration) (stop func()) {
	done := make(chan struct{})
	name := t.Name()
	go func() {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%s: no progress in %v; every goroutine:\n%s\n", name, d, buf[:runtime.Stack(buf, true)])
			panic(fmt.Sprintf("%s hung for %v (a lock taken out of order?)", name, d))
		}
	}()
	return func() { close(done) }
}
