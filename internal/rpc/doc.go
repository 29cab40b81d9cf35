// Package rpc is the message layer of the Propeller cluster: a minimal
// method-dispatch RPC over net.Conn with codec-tagged bodies (hand-rolled
// binary for messages that implement WireMarshaler, gob for the rest — see
// codec.go).
//
// It supports both real transports (TCP via net.Listen, in-process via
// net.Pipe) and an optional virtual network cost model so cluster
// experiments charge GbE-like latency to the simulated clock regardless of
// the physical transport.
//
// The layer is deliberately small: length-prefixed frames, one goroutine per
// server connection, a multiplexing client safe for concurrent Call use —
// the shape of the paper's "local RPC service" and node-to-node messaging.
//
// A frame is len | crc32(len) | crc32(payload) | payload; a mismatch of
// either checksum tears the connection with ErrFrameCorrupt (the layout
// comment in rpc.go says why the length needs its own).
//
// Servers register handlers with HandleTyped (a generic adapter that
// decodes the request and encodes the response); clients invoke them
// with the generic Call, matching requests to responses by sequence number
// so many goroutines can share one connection. A call is the only shape: a
// payload too large for one frame (an ACG image) moves as a sequence of
// calls, one bounded chunk each.
package rpc
