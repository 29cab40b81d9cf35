// Package perr defines Propeller's typed error taxonomy and its wire
// representation.
//
// Every layer of the request path (public API, client, RPC, master, index
// node) wraps failures in one of the sentinel errors below instead of
// minting ad-hoc fmt.Errorf strings, so callers can dispatch with
// errors.Is at any distance from the fault. Because RPC responses cross
// process boundaries as strings, the rpc package carries a compact
// taxonomy code alongside the message: CodeOf flattens an error chain to
// its code on the serving side and FromWire re-attaches the matching
// sentinel on the calling side, making errors.Is work end to end across
// the wire.
package perr

import (
	"context"
	"errors"
)

// Sentinel errors of the public taxonomy.
var (
	// ErrIndexNotFound reports a search or update against an index name
	// the cluster does not know.
	ErrIndexNotFound = errors.New("propeller: index not found")
	// ErrBadQuery reports a malformed or unsatisfiable query: syntax
	// errors, bad units, unknown operators, empty predicates.
	ErrBadQuery = errors.New("propeller: bad query")
	// ErrTimeout reports a request that exceeded its context deadline at
	// any point of the fan-out.
	ErrTimeout = errors.New("propeller: timeout")
	// ErrStalePlacement reports a request routed by an out-of-date placement
	// map: the target Index Node released the group (it migrated, or was
	// recovered elsewhere after a failure). The message carries the node's
	// current placement epoch; clients invalidate the moved cache entries,
	// re-resolve through the Master, and retry.
	ErrStalePlacement = errors.New("propeller: stale placement")
	// ErrOverloaded reports a request shed by an admission queue: the node
	// is above capacity (or the caller above its fair share) and rejected
	// the op before doing any work. Placement is still correct, so clients
	// must NOT invalidate their cache — the op was never accepted and can
	// be retried after backoff with no risk of data loss.
	ErrOverloaded = errors.New("propeller: overloaded")
	// ErrUnknownNode reports a node the Master holds no registration for:
	// it restarted from a snapshot since the node registered. The node
	// registers again and retries.
	ErrUnknownNode = errors.New("propeller: unknown node")
)

// Wire codes. Code 0 is a generic error with no taxonomy mapping.
const (
	codeGeneric        uint8 = 0
	codeIndexNotFound  uint8 = 1
	codeBadQuery       uint8 = 2
	codeTimeout        uint8 = 3
	codeStalePlacement uint8 = 4
	codeOverloaded     uint8 = 5
	codeUnknownNode    uint8 = 6
)

// CodeOf flattens err to its taxonomy wire code (0 when the chain carries
// no sentinel).
func CodeOf(err error) uint8 {
	switch {
	case err == nil:
		return codeGeneric
	case errors.Is(err, ErrIndexNotFound):
		return codeIndexNotFound
	case errors.Is(err, ErrBadQuery):
		return codeBadQuery
	case errors.Is(err, ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return codeTimeout
	case errors.Is(err, ErrStalePlacement):
		return codeStalePlacement
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, ErrUnknownNode):
		return codeUnknownNode
	default:
		return codeGeneric
	}
}

// wireError is a remote error re-attached to its local sentinel: Error()
// preserves the remote message, Unwrap restores errors.Is dispatch.
type wireError struct {
	sentinel error
	msg      string
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// FromWire reconstructs a typed error from a taxonomy code and remote
// message. A remote timeout matches both ErrTimeout and
// context.DeadlineExceeded, the same as a locally-expired deadline.
func FromWire(code uint8, msg string) error {
	switch code {
	case codeIndexNotFound:
		return &wireError{ErrIndexNotFound, msg}
	case codeBadQuery:
		return &wireError{ErrBadQuery, msg}
	case codeTimeout:
		return &wireTimeout{msg}
	case codeStalePlacement:
		return &wireError{ErrStalePlacement, msg}
	case codeOverloaded:
		return &wireError{ErrOverloaded, msg}
	case codeUnknownNode:
		return &wireError{ErrUnknownNode, msg}
	default:
		return errors.New(msg)
	}
}

// wireTimeout is a remote deadline expiry: the message is preserved and
// the chain matches the same sentinels as a local expiry.
type wireTimeout struct{ msg string }

func (e *wireTimeout) Error() string { return e.msg }
func (e *wireTimeout) Unwrap() []error {
	return []error{ErrTimeout, context.DeadlineExceeded}
}

// Ctx wraps a context error in the taxonomy: deadline expiry becomes
// ErrTimeout (keeping context.DeadlineExceeded in the chain), cancellation
// passes through as context.Canceled.
func Ctx(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &ctxTimeout{err}
	}
	return err
}

// ctxTimeout makes a context deadline error match both ErrTimeout and
// context.DeadlineExceeded.
type ctxTimeout struct{ cause error }

func (e *ctxTimeout) Error() string { return ErrTimeout.Error() + ": " + e.cause.Error() }
func (e *ctxTimeout) Unwrap() []error {
	return []error{ErrTimeout, e.cause}
}
