// Package tivframe carries tivwire's binary frames over persistent
// raw TCP or unix-socket connections, bypassing net/http entirely:
// one long-lived connection multiplexes many concurrent in-flight
// requests, each a u64 request id ahead of one self-describing "TB"
// frame. It is the machine surface; HTTP carries JSON only, and the
// differential suites hold the two equal at the decoded-struct level.
//
// Envelope layout (little-endian):
//
//	offset 0: request id, uint64 — echoed verbatim on the response
//	offset 8: one complete tivwire "TB" binary frame
//	          ("TB" magic, version, type byte, u32 payload length,
//	           payload — see tivwire's binary codec)
//
// The TB frame is self-delimiting, so the envelope needs no outer
// length prefix; a reader consumes the 8-byte id, the 8-byte TB
// header, then exactly the payload length the header declares. A
// stream that dies mid-payload is a torn frame: the reader sees
// io.ErrUnexpectedEOF and the connection is unusable (stream framing
// is lost), exactly like a torn HTTP body.
package tivframe

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tivaware/internal/tivwire"
)

const (
	// envIDLen is the envelope prefix: the u64 request id.
	envIDLen = 8
	// tbHeaderLen mirrors the TB frame header ("TB" + version + type +
	// u32 payload length) so the reader can bound a body before
	// consuming it.
	tbHeaderLen = 8
	// MaxFrameBytes caps one TB frame (header+payload) read off
	// a connection, matching tivd's HTTP body cap: large enough for
	// the biggest sane batch, small enough to bound a hostile peer.
	MaxFrameBytes = 16 << 20
)

// ErrFrameTooLarge reports a TB frame whose declared payload exceeds
// the reader's cap. The connection must be closed: the stream offset
// of the next envelope is unknowable without trusting the length.
var ErrFrameTooLarge = errors.New("tivframe: frame exceeds size limit")

// AppendEnvelope appends one (id, msg) envelope to dst and returns
// the extended slice: the request id then the message's TB frame.
// msg must be a registered tivwire message (same contract as
// tivwire.AppendBinary).
//
//tiv:hotpath
func AppendEnvelope(dst []byte, id uint64, msg any) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return tivwire.AppendBinary(dst, msg)
}

// SplitEnvelope splits one complete envelope buffer into its request
// id and TB frame (aliasing buf). It validates only the envelope
// geometry — the id prefix and the TB header's declared length
// against the bytes present — leaving payload decoding to tivwire.
//
//tiv:hotpath
func SplitEnvelope(buf []byte) (id uint64, frame []byte, err error) {
	if len(buf) < envIDLen+tbHeaderLen {
		return 0, nil, fmt.Errorf("tivframe: envelope of %d bytes, want >= %d", len(buf), envIDLen+tbHeaderLen)
	}
	id = binary.LittleEndian.Uint64(buf)
	frame = buf[envIDLen:]
	if frame[0] != 'T' || frame[1] != 'B' {
		return 0, nil, fmt.Errorf("tivframe: bad frame magic %q", frame[:2])
	}
	n := int(binary.LittleEndian.Uint32(frame[4:]))
	if want := tbHeaderLen + n; len(frame) != want {
		return 0, nil, fmt.Errorf("tivframe: frame declares %d bytes, envelope carries %d", want, len(frame))
	}
	return id, frame, nil
}

// readEnvelope reads one envelope off r into buf (grown as needed and
// returned for reuse), yielding the request id and the complete TB
// frame (aliasing the returned buffer). max bounds the TB frame; a
// declared length beyond it returns ErrFrameTooLarge. A clean EOF
// before the first id byte returns io.EOF; any truncation after it
// returns io.ErrUnexpectedEOF (a torn frame).
func readEnvelope(r *bufio.Reader, buf []byte, max int) (id uint64, frame, out []byte, err error) {
	const hdr = envIDLen + tbHeaderLen
	if cap(buf) < hdr {
		buf = make([]byte, 0, 4096)
	}
	head := buf[:hdr]
	if _, err := io.ReadFull(r, head); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, buf, io.EOF
		}
		return 0, nil, buf, fmt.Errorf("tivframe: reading envelope header: %w", err)
	}
	id = binary.LittleEndian.Uint64(head)
	tb := head[envIDLen:]
	if tb[0] != 'T' || tb[1] != 'B' {
		return 0, nil, buf, fmt.Errorf("tivframe: bad frame magic %q", tb[:2])
	}
	n := int(binary.LittleEndian.Uint32(tb[4:]))
	if n < 0 || tbHeaderLen+n > max {
		return 0, nil, buf, fmt.Errorf("%w: %d bytes declared, cap %d", ErrFrameTooLarge, tbHeaderLen+n, max)
	}
	total := hdr + n
	if cap(buf) < total {
		grown := make([]byte, total)
		copy(grown, head)
		buf = grown[:0]
	}
	full := buf[:total]
	if _, err := io.ReadFull(r, full[hdr:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, fmt.Errorf("tivframe: reading frame body: %w", err)
	}
	return id, full[envIDLen:], full[:0], nil
}
