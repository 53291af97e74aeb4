package rpc

import (
	"errors"
	"fmt"
)

// ErrUnavailable matches (via errors.Is) every request that failed on the
// transport — a dial failure, reset, torn frame or EOF — as opposed to an
// error the remote engine returned. Transport failures are safe to retry:
// mutating ops are dedup'd server-side by their sequence number.
var ErrUnavailable = errors.New("rpc: server unavailable")

// TransportError is the typed error for a request that failed on the wire.
type TransportError struct {
	Addr string // server address
	Op   string // request kind ("pull", "push", ...)
	Err  error  // underlying I/O error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("rpc: %s to %s: %v", e.Op, e.Addr, e.Err)
}

// Unwrap exposes the underlying I/O error.
func (e *TransportError) Unwrap() error { return e.Err }

// Is reports true for ErrUnavailable targets so
// errors.Is(err, rpc.ErrUnavailable) works without unwrapping.
func (e *TransportError) Is(target error) bool { return target == ErrUnavailable }

// ErrEpochFenced matches (via errors.Is) requests rejected because the
// client's epoch is stale: the node crashed+recovered or rolled back since
// the client last synchronized. The caller must run the cluster recovery
// protocol (rollback + AdoptEpoch) before continuing.
var ErrEpochFenced = errors.New("rpc: stale epoch fenced")

// EpochError is the typed error for an epoch-fenced request.
type EpochError struct {
	Addr        string // server address
	ClientEpoch int64  // the epoch the client believed current (-1 unknown)
	ServerEpoch int64  // the server's actual epoch
}

// Error implements error.
func (e *EpochError) Error() string {
	return fmt.Sprintf("rpc: epoch fenced by %s: client at %d, server at %d",
		e.Addr, e.ClientEpoch, e.ServerEpoch)
}

// Is reports true for ErrEpochFenced targets.
func (e *EpochError) Is(target error) bool { return target == ErrEpochFenced }

// ErrRemoteCorrupt matches (via errors.Is) requests the server rejected
// because it detected PMem corruption — a record checksum mismatch or a
// poisoned media range — while serving them. The data never reached the
// response. Not retried transparently: transient healing is the node
// scrubber's job, and unrecoverable loss surfaces through the epoch
// fence + rollback protocol.
var ErrRemoteCorrupt = errors.New("rpc: remote data corruption detected")

// RemoteCorruptError is the typed error for a MsgErrCorrupt response.
type RemoteCorruptError struct {
	Addr string // server address (empty when decoded without context)
	Msg  string // the remote integrity error text
}

// Error implements error.
func (e *RemoteCorruptError) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("rpc: remote corruption: %s", e.Msg)
	}
	return fmt.Sprintf("rpc: remote corruption at %s: %s", e.Addr, e.Msg)
}

// Is reports true for ErrRemoteCorrupt targets.
func (e *RemoteCorruptError) Is(target error) bool { return target == ErrRemoteCorrupt }

// ErrClientClosed is returned by operations on a Client after Close.
var ErrClientClosed = errors.New("rpc: client closed")

// IsRecoverable reports whether err is a failure the cluster recovery
// protocol can heal: a transport failure or timeout (the node may have
// crashed — redial and replay) or an epoch fence (the node recovered —
// roll back and re-adopt). Remote application errors are not recoverable.
func IsRecoverable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrEpochFenced)
}
