package tivclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tivaware/internal/tivwire"
)

// sseHandler serves a scripted SSE stream: the handshake comment,
// then each frame, then (optionally) blocks until the request ends.
func sseHandler(t *testing.T, frames []string, block bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("test server does not support flushing")
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, ": subscribed n=8\n\n")
		fl.Flush()
		for _, f := range frames {
			fmt.Fprint(w, f)
			fl.Flush()
		}
		if block {
			<-r.Context().Done()
		}
	})
}

func subscribeAgainst(t *testing.T, h http.Handler, ctx context.Context) (events []tivwire.ChangeSet, err error) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL, Options{})
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- c.Subscribe(ctx, ready, func(cs tivwire.ChangeSet) { events = append(events, cs) })
	}()
	select {
	case <-ready:
	case err := <-done:
		// A short scripted stream can finish before this goroutine
		// looks: then both channels are ready and select picks either.
		select {
		case <-ready:
			done <- err
		default:
			t.Fatalf("Subscribe ended before handshake: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handshake timed out")
	}
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Subscribe did not return")
	}
	return events, err
}

// TestSubscribeOverflowTypedError is the regression test for the
// overflow-disconnect path: when the daemon drops a subscriber that
// fell behind its event buffer, the client must deliver everything it
// got and then surface ErrSubscribeOverflow — not stall, and not
// return an anonymous error the caller cannot dispatch on.
func TestSubscribeOverflowTypedError(t *testing.T) {
	frames := []string{
		"id: 7\nevent: changeset\ndata: {\"version\":7,\"newly_violated\":[{\"i\":0,\"j\":1,\"severity\":1.5}]}\n\n",
		"event: overflow\ndata: {}\n\n",
	}
	events, err := subscribeAgainst(t, sseHandler(t, frames, false), context.Background())
	if !errors.Is(err, ErrSubscribeOverflow) {
		t.Fatalf("Subscribe after overflow = %v, want ErrSubscribeOverflow", err)
	}
	if len(events) != 1 || events[0].Version != 7 || len(events[0].NewlyViolated) != 1 {
		t.Fatalf("events before the overflow = %+v, want the v7 change set", events)
	}
}

// TestSubscribeClosedTypedError: a daemon that ends the stream (shut
// down, restarted) must surface ErrSubscribeClosed.
func TestSubscribeClosedTypedError(t *testing.T) {
	_, err := subscribeAgainst(t, sseHandler(t, nil, false), context.Background())
	if !errors.Is(err, ErrSubscribeClosed) {
		t.Fatalf("Subscribe after server close = %v, want ErrSubscribeClosed", err)
	}
}

// TestSubscribeCancelReturnsNil: only a caller-side cancellation ends
// the stream silently.
func TestSubscribeCancelReturnsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := subscribeAgainst(t, sseHandler(t, nil, true), ctx)
	if err != nil {
		t.Fatalf("Subscribe after cancel = %v, want nil", err)
	}
}

// TestSubscribeMalformedChangeset: a corrupt payload is a protocol
// error, not a panic and not a stall.
func TestSubscribeMalformedChangeset(t *testing.T) {
	frames := []string{"event: changeset\ndata: {not json\n\n"}
	events, err := subscribeAgainst(t, sseHandler(t, frames, false), context.Background())
	if err == nil || errors.Is(err, ErrSubscribeClosed) || errors.Is(err, ErrSubscribeOverflow) {
		t.Fatalf("Subscribe on malformed payload = %v, want a decode error", err)
	}
	if !strings.Contains(err.Error(), "decoding changeset") {
		t.Fatalf("error %v does not name the decode failure", err)
	}
	if len(events) != 0 {
		t.Fatalf("malformed payload delivered events: %+v", events)
	}
}
