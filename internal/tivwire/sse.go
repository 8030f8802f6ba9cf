package tivwire

import (
	"bufio"
	"io"
	"strings"
)

// SSEEvent is one parsed server-sent event from a /v1/subscribe
// stream: the event name, the id line (the shard's monitor version on
// changeset events; informational, the version also travels in the
// payload), and the data lines joined with newlines. Comment frames
// (the subscription handshake, heartbeats) are consumed silently.
type SSEEvent struct {
	Name string
	ID   string
	Data string
}

// SSEScanner incrementally parses a text/event-stream: the reader the
// tivd stream tests use and FuzzSSEScanner hardens, for any Go
// consumer of /v1/subscribe. Frames are bounded at maxSSEFrame bytes
// per line; a truncated final event (stream ends before the
// blank-line terminator) is discarded, per the SSE convention that an
// event is only complete at its terminator.
type SSEScanner struct {
	sc *bufio.Scanner
}

// maxSSEFrame bounds one stream line; a line longer than this ends
// the stream with bufio.ErrTooLong instead of growing without bound.
const maxSSEFrame = 16 << 20

// NewSSEScanner wraps a stream body.
func NewSSEScanner(r io.Reader) *SSEScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxSSEFrame)
	return &SSEScanner{sc: sc}
}

// Next returns the next complete event. It returns io.EOF at the end
// of the stream and the underlying read error otherwise; it never
// panics, whatever the stream carries.
func (s *SSEScanner) Next() (SSEEvent, error) {
	var ev SSEEvent
	has := false
	var data strings.Builder
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if has {
				ev.Data = data.String()
				return ev, nil
			}
			// Comment-only block (handshake, heartbeat): keep going.
			ev, has = SSEEvent{}, false
			data.Reset()
		case strings.HasPrefix(line, ":"):
			// comment
		case strings.HasPrefix(line, "event:"):
			ev.Name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
			has = true
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
			has = true
		case strings.HasPrefix(line, "id:"):
			ev.ID = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
			has = true
		default:
			// Unknown field: ignored, per the SSE spec.
		}
	}
	if err := s.sc.Err(); err != nil {
		return SSEEvent{}, err
	}
	return SSEEvent{}, io.EOF
}
