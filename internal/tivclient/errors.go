package tivclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"time"

	"tivaware/internal/tivwire"
)

// Synthesized client-side codes for failures that never carried a
// server envelope. They extend the tivwire taxonomy on the wire's
// client side only (a server never emits them).
const (
	// CodeTransport: the request never completed at the HTTP layer —
	// dial failure, connection reset, timeout, torn response.
	// Retryable: a replica (or a retry) may not share the fault.
	CodeTransport = "transport"
	// CodeBadPayload: the server answered 200 but the body did not
	// decode (truncated JSON, wrong shape). Retryable: the dominant
	// cause is a connection torn mid-body, not a protocol mismatch.
	CodeBadPayload = "bad_payload"
)

// Error is the typed failure every query/update call returns: the
// tivwire failure taxonomy threaded through the client, so callers —
// the tivshard gateway's retry/failover logic above all — dispatch on
// Code and Retryable instead of parsing message strings.
type Error struct {
	// Op is the failing call, e.g. "GET /v1/rank".
	Op string
	// Code is the taxonomy code: a tivwire.Code* constant from the
	// server envelope, or a synthesized client-side code (transport,
	// bad_payload). Empty when a non-2xx response carried no envelope.
	Code string
	// Status is the HTTP status; 0 when no response arrived.
	Status int
	// Message is the server's (or transport's) human-readable message.
	Message string
	// RetryAfter is the server's retry hint; zero means none.
	RetryAfter time.Duration
	// cause is the underlying error, if any (transport and decode
	// failures); reachable via errors.Unwrap/Is/As.
	cause error
}

func (e *Error) Error() string {
	switch {
	case e.Op == "" && e.Status == 0:
		// Local validation failures carry no operation: they fail
		// before any request exists.
		return "tivclient: " + e.Message
	case e.Status == 0:
		return fmt.Sprintf("tivclient: %s: %s", e.Op, e.Message)
	case e.Code != "":
		return fmt.Sprintf("tivclient: %s: %s (%s, HTTP %d)", e.Op, e.Message, e.Code, e.Status)
	default:
		return fmt.Sprintf("tivclient: %s: %s (HTTP %d)", e.Op, e.Message, e.Status)
	}
}

func (e *Error) Unwrap() error { return e.cause }

// WireCode exposes the taxonomy code under the interface tivd's
// errorEnvelope (and other code-dispatching callers) recognize: a
// gateway hands a shard's coded failure on with its code.
func (e *Error) WireCode() string { return e.Code }

// Retryable reports whether the failure is worth retrying — against
// the same daemon (after RetryAfter, if set) or a replica. Terminal
// failures (bad requests, not-live deployments, replica divergence)
// fail identically everywhere and are not retryable.
func (e *Error) Retryable() bool {
	if tivwire.RetryableCode(e.Code) {
		return true
	}
	switch e.Code {
	case CodeTransport, CodeBadPayload:
		return true
	case "":
		// No envelope: classify by status. 5xx (and 0: no response)
		// are server-side or transport conditions a replica may not
		// share; 4xx are the request's fault.
		return e.Status == 0 || e.Status >= 500
	}
	return false
}

// IsRetryable classifies any error a client call (or a raw transport)
// produced: true when retrying the operation — on this daemon or a
// replica — could plausibly succeed. Context cancellation is terminal
// (the caller gave up); a deadline expiry is retryable (per-attempt
// timeouts expire on hung backends precisely so the caller can fail
// over — callers enforcing an overall deadline check their own
// context before retrying).
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Retryable()
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// envelopeError is the typed error a server's error envelope becomes,
// however it arrived (a framed error reply, a per-query batch result).
func envelopeError(op string, we tivwire.Error) *Error {
	return &Error{Op: op, Code: we.Code, Message: we.Error, RetryAfter: retryAfter(we.RetryAfter)}
}

// retryAfter converts the wire hint (seconds) to a duration.
func retryAfter(seconds float64) time.Duration {
	if seconds <= 0 {
		return 0
	}
	return time.Duration(seconds * float64(time.Second))
}
