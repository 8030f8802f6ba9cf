package tivfault

import (
	"fmt"
	"io"
	"net/http"

	"tivaware/internal/tivwire"
)

// Handler wraps h with server-side fault injection: per-request
// latency, injected 503 error envelopes (a well-formed retryable
// failure), pre-header hangs (the request never answers until the
// client gives up), torn responses (headers flush, then the
// connection dies mid-body — truncated JSON on query endpoints, torn
// streams on SSE), and crash-on-Nth-request via CrashFn.
func (i *Injector) Handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !i.matches(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		switch i.roll(r.Context().Done()) {
		case faultErr:
			writeInjected(w)
			return
		case faultHang:
			// net/http watches the connection only once the request body
			// is read: drain it, or a POST's hang outlives its client.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		case faultTear:
			// Let the handler run against a writer that cuts the
			// connection after a small random byte budget.
			tw := &tearWriter{ResponseWriter: w, remaining: i.cutBudget()}
			h.ServeHTTP(tw, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// writeInjected writes the injected failure as a structured envelope,
// indistinguishable from a genuine overloaded backend.
func writeInjected(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, `{"error":"injected fault (tivfault)","code":%q,"retry_after":0.05}`,
		tivwire.CodeUnavailable)
}

// cutBudget picks how many response bytes survive a tear: at least
// one (headers and a sliver of body flush, so the client commits to
// parsing) and few enough that any realistic JSON payload truncates.
func (i *Injector) cutBudget() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return 1 + i.rng.Intn(128)
}

// tearWriter forwards up to `remaining` bytes, then kills the
// connection by panicking with http.ErrAbortHandler — net/http's
// sanctioned way to abort a response without a graceful close, which
// is exactly what a crashing server looks like on the wire.
type tearWriter struct {
	http.ResponseWriter
	remaining int
}

func (t *tearWriter) Write(p []byte) (int, error) {
	if t.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	n := len(p)
	if n > t.remaining {
		n = t.remaining
	}
	n, err := t.ResponseWriter.Write(p[:n])
	t.remaining -= n
	if t.remaining <= 0 {
		if f, ok := t.ResponseWriter.(http.Flusher); ok {
			f.Flush() // push the truncated prefix out before dying
		}
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (t *tearWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
