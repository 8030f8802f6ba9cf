// Package leakcheck is the serving plane's runtime goroutine-leak gate:
// a TestMain that fails the package when, after its tests have run,
// goroutines running this module's code are still alive.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests, then gives every goroutine with a
// tivaware/ frame three seconds to exit (a closed connection's handler
// and a cancelled probe are on their way out); if some remain it prints
// their stacks and exits non-zero. Use:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	code := m.Run()
	leaked := ours()
	for deadline := time.Now().Add(3 * time.Second); len(leaked) > 0 && time.Now().Before(deadline); leaked = ours() {
		time.Sleep(20 * time.Millisecond)
	}
	if len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running tivaware code after the tests:\n\n%s\n",
			len(leaked), strings.Join(leaked, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// ours returns the stack of every goroutine but the caller's that has a
// frame in this module.
func ours() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	// runtime.Stack lists the calling goroutine first.
	for _, s := range strings.Split(string(buf[:n]), "\n\n")[1:] {
		frames, _, _ := strings.Cut(s, "\ncreated by ")
		if strings.Contains(frames, "tivaware/") {
			out = append(out, s)
		}
	}
	return out
}
