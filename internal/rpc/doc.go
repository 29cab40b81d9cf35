// Package rpc is the message layer of the Propeller cluster: a minimal
// method-dispatch RPC over net.Conn whose bodies are the messages' own
// binary encoding (WireMarshaler / WireUnmarshaler, which every message
// implements — see codec.go).
//
// It supports both real transports (TCP via net.Listen, in-process via
// net.Pipe) and an optional virtual network cost model so cluster
// experiments charge GbE-like latency to the simulated clock regardless of
// the physical transport.
//
// The layer is deliberately small: length-prefixed frames, one reader per
// connection, a multiplexing client safe for concurrent use — the shape of
// the paper's "local RPC service" and node-to-node messaging. A server
// connection's reader hands each request to a handler goroutine parked on
// the connection, or starts one when none is parked, so handlers on one
// connection never wait on each other, and a warm call starts none.
//
// A frame is len | crc32(len) | crc32(payload) | payload; a mismatch of
// either checksum tears the connection with ErrFrameCorrupt (the layout
// comment in rpc.go says why the length needs its own).
//
// Servers register handlers with HandleTyped (a generic adapter that
// decodes the request and encodes the response, accepting only
// wire-coded messages). A client call is two halves: Client.Send writes the
// request and Pending.Wait decodes the reply, matched by sequence number so
// many goroutines can share one connection. CallInto is the two back to
// back, from request and response storage its caller keeps; a fan-out
// sends every leg before it waits for any. The generic Call is CallInto
// with messages of its own, for cold calls. A call is the only shape: a
// payload too large for one frame (an ACG image) moves as a sequence of
// calls, one bounded chunk each.
package rpc
