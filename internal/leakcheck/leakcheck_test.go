package leakcheck

import (
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// parkInModule is a goroutine body in this module's code: it signals,
// then parks until released.
func parkInModule(parked chan<- struct{}, release <-chan struct{}) {
	close(parked)
	<-release
}

// reported returns the stack ours() reports that contains frame, or "".
func reported(frame string) string {
	for _, s := range ours() {
		if strings.Contains(s, frame) {
			return s
		}
	}
	return ""
}

// eventually polls cond for up to five seconds.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return false
}

// TestOursReportsModuleGoroutineUntilReleased: a goroutine parked in
// module code is exactly what the gate reports, and only while it is
// alive.
func TestOursReportsModuleGoroutineUntilReleased(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	go parkInModule(parked, release)
	<-parked
	if reported("leakcheck.parkInModule") == "" {
		t.Fatalf("a goroutine parked in module code is not reported; ours() = %q", ours())
	}
	close(release)
	if !eventually(func() bool { return reported("leakcheck.parkInModule") == "" }) {
		t.Fatalf("a released goroutine is still reported:\n%s", reported("leakcheck.parkInModule"))
	}
}

// TestOursIgnoresStdlibGoroutine: a goroutine running only standard
// library frames is not the module's, even when a test of this module
// created it — the "created by" line does not count.
func TestOursIgnoresStdlibGoroutine(t *testing.T) {
	pr, pw := io.Pipe()
	go io.Copy(io.Discard, pr)
	const creator = "created by tivaware/internal/leakcheck.TestOursIgnoresStdlibGoroutine"
	// stack returns the goroutine's entry in a full dump, "" once gone.
	stack := func() string {
		buf := make([]byte, 1<<20)
		for _, s := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(s, creator) {
				return s
			}
		}
		return ""
	}
	// Until it runs, the goroutine sits in the go statement's wrapper,
	// a module frame; wait for it to park in the pipe read.
	if !eventually(func() bool { return strings.Contains(stack(), "io.(*pipe).read") }) {
		t.Fatalf("the io.Copy goroutine never parked in its pipe read:\n%s", stack())
	}
	if s := reported(creator); s != "" {
		t.Errorf("a goroutine running only stdlib frames is reported:\n%s", s)
	}
	pw.Close()
	if !eventually(func() bool { return stack() == "" }) {
		t.Fatal("the io.Copy goroutine did not exit after its pipe closed")
	}
}
