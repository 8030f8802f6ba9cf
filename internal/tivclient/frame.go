package tivclient

import (
	"context"
	"errors"

	"tivaware/internal/tivframe"
)

// The framed call path. When Options.FrameAddr is set, every query,
// update, and health ping travels over a pool of persistent raw
// connections (tivd -frame-listen) carrying tivwire binary frames —
// multiplexed by request id, with no per-request HTTP overhead. A
// query is always a batch (QueryBatch; a per-kind method sends a batch
// of one). Every failure is classified into the same typed *Error
// taxonomy the HTTP path produces, so the retry layers above
// (tivshard) dispatch identically no matter the transport.

// frameCall performs one request/response exchange on the framed pool
// and decodes the response into resp.
func (c *Client) frameCall(ctx context.Context, op string, req, resp any) error {
	ctx, cancel := callCtx(ctx)
	defer cancel()
	err := c.frames.Do(ctx, req, resp)
	if err == nil {
		return nil
	}
	var se *tivframe.ServerError
	switch {
	case errors.As(err, &se):
		// The framed analogue of a non-200 envelope response.
		return &Error{Op: op, Code: se.Env.Code, Message: se.Env.Error,
			RetryAfter: retryAfter(se.Env.RetryAfter), cause: err}
	case errors.Is(err, tivframe.ErrDecode):
		return &Error{Op: op, Code: CodeBadPayload, Message: err.Error(), cause: err}
	default:
		// Dial, write, torn-read, and context failures: the request
		// may never have completed. Context errors stay reachable via
		// the cause chain, so IsRetryable still rules cancellation
		// terminal.
		return &Error{Op: op, Code: CodeTransport, Message: err.Error(), cause: err}
	}
}
