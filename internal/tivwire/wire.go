// Package tivwire defines the wire protocol between the tivd daemon
// (internal/tivd) and its Go client (internal/tivclient):
// request/response bodies and server-sent event payloads, each one
// struct with two encodings (JSON by tag, binary in binary.go). Both
// sides import this package, so the protocol has exactly one
// definition — and the records a query moves (Query, Selection,
// Detour, Update) have one too: they are the tivaware / tiv types, so
// an answer crosses a package boundary as the slice it was built or
// decoded into. The one mirror left is Edge (and ChangeSet on it) over
// delayspace.Edge: bench/check.go reads Result.Edges[k].Delay, and
// bench/ changes only in [benchmark] PRs.
//
// The protocol is versioned by path prefix (/v1/...); all bodies are
// JSON. Missing delays travel as -1 (delayspace.Missing), never as
// null, so a response is always a flat struct.
package tivwire

import (
	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
)

// Health is the GET /healthz response: liveness plus the epoch and
// source-version counters, so operators (and the smoke tests) can
// watch state advance without pulling O(N²) payloads.
type Health struct {
	Status  string `json:"status"` // "ok", or "degraded" when a sharded backend is running with shards down
	N       int    `json:"n"`
	Live    bool   `json:"live"`    // updates and subscriptions accepted
	Epoch   uint64 `json:"epoch"`   // service epoch sequence number
	Version uint64 `json:"version"` // matrix version the epoch reflects
	// Cache reports the query-cache counters, which every tivd server
	// has. Load tools diff two readings for a hit rate.
	Cache *CacheStats `json:"cache,omitempty"`
	// Boot identifies the serving process: a random nonzero value drawn
	// once at start-up, so a prober that sees it change knows the daemon
	// restarted (and lost every update it held) however quickly it came
	// back. Absent (0) from daemons that predate it.
	Boot uint64 `json:"boot,omitempty"`
}

// CacheStats are the daemon's epoch-keyed query-cache counters,
// monotone since process start.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"` // currently resident entries
}

// The records shared with the in-process API, documented and tagged
// where they are declared.
type (
	Query     = tivaware.Query
	Selection = tivaware.Selection
	Detour    = tivaware.Detour
	Update    = tiv.Update
)

// RankResponse is the GET /v1/rank (and /v1/closest) response.
type RankResponse struct {
	Target int    `json:"target"`
	Epoch  uint64 `json:"epoch"`
	// Truncated reports that more candidates ranked than the
	// requested (or daemon-capped) k and the tail was cut. Clients
	// needing the full ranking must not treat a truncated response as
	// complete.
	Truncated  bool        `json:"truncated,omitempty"`
	Selections []Selection `json:"selections"`
}

// DetourResponse is the GET /v1/detour response.
type DetourResponse struct {
	Epoch  uint64 `json:"epoch"`
	Detour Detour `json:"detour"`
}

// Edge is one edge with an attached value (severity for /v1/top and
// subscription events, matching delayspace.Edge's Delay field).
type Edge struct {
	I        int     `json:"i"`
	J        int     `json:"j"`
	Severity float64 `json:"severity"`
}

// FromEdges converts severity-carrying delayspace edges.
func FromEdges(edges []delayspace.Edge) []Edge {
	out := make([]Edge, len(edges))
	for k, e := range edges {
		out[k] = Edge{I: e.I, J: e.J, Severity: e.Delay}
	}
	return out
}

// ToEdges converts back to severity-carrying delayspace edges.
func ToEdges(edges []Edge) []delayspace.Edge {
	out := make([]delayspace.Edge, len(edges))
	for k, e := range edges {
		out[k] = delayspace.Edge{I: e.I, J: e.J, Delay: e.Severity}
	}
	return out
}

// TopResponse is the GET /v1/top response: the k worst edges by
// severity, most severe first.
type TopResponse struct {
	Epoch uint64 `json:"epoch"`
	Edges []Edge `json:"edges"`
}

// DelayResponse is the GET /v1/delay response.
type DelayResponse struct {
	I     int     `json:"i"`
	J     int     `json:"j"`
	Delay float64 `json:"delay"` // -1 when OK is false
	OK    bool    `json:"ok"`
}

// AnalysisResponse is the GET /v1/analysis response: the aggregate
// triangle statistics (the O(N²) severity field stays server-side;
// use /v1/top or /v1/rank for edge-level data).
type AnalysisResponse struct {
	Epoch                     uint64  `json:"epoch"`
	Version                   uint64  `json:"version"`
	N                         int     `json:"n"`
	ViolatingTriangles        int64   `json:"violating_triangles"`
	Triangles                 int64   `json:"triangles"`
	ViolatingTriangleFraction float64 `json:"violating_triangle_fraction"`
}

// UpdateRequest is the POST /v1/update body: one or more updates,
// applied in order as one batch.
type UpdateRequest struct {
	Updates []Update `json:"updates"`
}

// ChangeSet mirrors tiv.ChangeSet: how the violated-edge set moved
// under one applied update or batch. It is both the POST /v1/update
// response and the payload of every "changeset" server-sent event on
// /v1/subscribe.
type ChangeSet struct {
	Version       uint64 `json:"version"` // monitor version after the mutation
	Rescan        bool   `json:"rescan"`
	NewlyViolated []Edge `json:"newly_violated,omitempty"`
	Cleared       []Edge `json:"cleared,omitempty"`
}

// Empty reports whether the change set carries no set deltas.
func (c ChangeSet) Empty() bool {
	return len(c.NewlyViolated) == 0 && len(c.Cleared) == 0
}

// FromChangeSet converts the in-process type.
func FromChangeSet(cs tiv.ChangeSet) ChangeSet {
	return ChangeSet{
		Version:       cs.Version,
		Rescan:        cs.Rescan,
		NewlyViolated: FromEdges(cs.NewlyViolated),
		Cleared:       FromEdges(cs.Cleared),
	}
}

// Error is the body of every non-2xx response: a human-readable
// message plus a machine-readable code from the failure taxonomy
// below, so clients dispatch on Code (retry, resync, give up) instead
// of parsing message strings.
type Error struct {
	Error string `json:"error"`
	// Code classifies the failure; one of the Code* constants. Empty
	// on responses from pre-taxonomy daemons (treat by HTTP status).
	Code string `json:"code,omitempty"`
	// RetryAfter, in seconds, is the server's hint for when a
	// retryable failure is worth retrying; zero means no hint.
	RetryAfter float64 `json:"retry_after,omitempty"`
}

// The failure taxonomy. Retryable vs terminal is the load-bearing
// split: a retryable failure (the backend is temporarily unable to
// answer) is worth retrying — against the same daemon after
// RetryAfter, or immediately against a replica — while a terminal
// failure (the request itself is wrong, or the deployment cannot
// satisfy it) will fail identically everywhere and must surface.
const (
	// CodeBadRequest: malformed or out-of-range request. Terminal.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: wrong HTTP method. Terminal.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotLive: the daemon serves a static matrix and cannot accept
	// updates or subscriptions. Terminal (until redeployed with -live).
	CodeNotLive = "not_live"
	// CodeDiverged: a sharded backend's replicas disagree; the answer
	// would be unreliable. Terminal for this request (operators must
	// intervene; see DESIGN.md "The failure model").
	CodeDiverged = "diverged"
	// CodeUnavailable: the backend (or enough of its shards) is
	// temporarily unreachable, shutting down, or out of capacity.
	// Retryable, after RetryAfter if set.
	CodeUnavailable = "unavailable"
	// CodeInternal: an unexpected server-side failure. Retryable (a
	// replica may not share it).
	CodeInternal = "internal"
)

// CodedError is an error whose builder chose its taxonomy code — tivd's
// request validation and service adapter, the gateway's own failures, a
// shard's refusal handed on; tivd serves an error without one as
// internal. The envelope a client reads is exactly {Msg, Code}.
type CodedError struct {
	Code  string // a Code* constant
	Msg   string // the whole message, as the client reads it
	Cause error  // the underlying error, if any, for errors.Is / As
}

func (e *CodedError) Error() string    { return e.Msg }
func (e *CodedError) Unwrap() error    { return e.Cause }
func (e *CodedError) WireCode() string { return e.Code }

// RetryableCode reports whether a taxonomy code marks a failure worth
// retrying. Unknown and empty codes return false — callers without a
// code should fall back to the HTTP status (5xx retryable).
func RetryableCode(code string) bool {
	switch code {
	case CodeUnavailable, CodeInternal:
		return true
	}
	return false
}

// Hello is the payload of the "hello" server-sent event: the first
// event on every /v1/subscribe stream, carrying the state counters at
// attach time. Reconnecting subscribers compare Version against the
// last change-set version they observed: equality proves the
// violated-edge picture survived the gap intact, anything else
// (updates applied while detached, or a daemon restart that reset the
// counters) means the picture is torn and must be resynced (TopEdges)
// before the new deltas are applied.
type Hello struct {
	N       int    `json:"n"`
	Version uint64 `json:"version"`
	Epoch   uint64 `json:"epoch"`
}
