// Package proto defines the wire types exchanged between Propeller's
// client, Master Node and Index Nodes (Figure 6), carried by package rpc.
// Every message has one hand-rolled binary form (wire.go): for UpdateReq
// that form is also the Index Node's log record, and the Master's snapshot
// is built from the same exported helpers.
//
// The vocabulary mirrors the paper: an ACGID names one Access-Causality
// Group (an index partition), an IndexSpec declares a named B-tree, hash or
// K-D index over file attributes, and the request/response pairs cover the
// three planes of the system — data (UpdateReq/SearchReq), causality
// (FlushACGReq, ReceiveACGChunkReq) and control (HeartbeatReq, whose
// reply is the plan's difference from the node's report — Targets and
// Moves — ReportReq, which hands a carried-out move back, NodeStatsReq and
// friends). Method name constants bind each pair to its rpc dispatch
// label.
//
// Everything here is plain data and its encoding: no internal state, so
// the package can be imported from every layer without cycles.
package proto
