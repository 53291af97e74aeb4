package faultinject

import (
	"fmt"
	"net"
	"time"
)

// WrapDial wraps a dial function so every connection it opens consults the
// injector under the stream label label(addr): first the PointDial stream —
// an injected delay sleeps and then dials, a partition fails at once as a
// timeout (silent SYN loss: the caller's deadline "expires"), any other
// fault refuses the dial — and then, once dial succeeds, the conn's reads
// and writes (WrapConn). Labels must be deterministic across runs, so label
// maps an address to a node index, never to the address itself when that is
// an ephemeral port. A nil injector returns dial unchanged.
//
// The result is what rpc.Options.Dial takes.
func (in *Injector) WrapDial(dial func(addr string) (net.Conn, error), label func(addr string) string) func(addr string) (net.Conn, error) {
	if in == nil {
		return dial
	}
	return func(addr string) (net.Conn, error) {
		l := label(addr)
		switch f := in.On(PointDial, l); f.Kind {
		case KindNone:
		case KindDelay, KindSlow:
			time.Sleep(f.Delay)
		case KindPartition:
			return nil, PartitionError(injectedf(KindPartition, "dial", l))
		default:
			return nil, injectedf(f.Kind, "dial", l)
		}
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(conn, l), nil
	}
}

// WrapListen wraps a listen function so every connection its listeners
// accept reads and writes through the injector under one fixed stream label
// (WrapConn). A nil injector returns listen unchanged.
//
// The result is what ps.NodeConfig.Listen takes.
func (in *Injector) WrapListen(listen func(addr string) (net.Listener, error), label string) func(addr string) (net.Listener, error) {
	if in == nil {
		return listen
	}
	return func(addr string) (net.Listener, error) {
		ln, err := listen(addr)
		if err != nil {
			return nil, err
		}
		return &faultListener{Listener: ln, in: in, label: label}, nil
	}
}

type faultListener struct {
	net.Listener
	in    *Injector
	label string
}

// Accept wraps each accepted connection under the listener's label.
func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(conn, l.label), nil
}

// WrapConn wraps a connection so reads and writes consult the injector
// under the given stream label. A nil injector returns conn unchanged, so
// the fault-free path has no wrapper at all.
func (in *Injector) WrapConn(conn net.Conn, label string) net.Conn {
	if in == nil {
		return conn
	}
	return &faultConn{Conn: conn, in: in, label: label}
}

type faultConn struct {
	net.Conn
	in    *Injector
	label string
}

// injectedf is the error of an injected fault of the given kind during op on
// the labelled stream; it matches ErrInjected.
func injectedf(kind Kind, op, label string) error {
	return fmt.Errorf("%w: %s during %s on %s", ErrInjected, kind, op, label)
}

// Read consults the injector: KindReset closes the connection and fails the
// read; KindDelay and KindSlow sleep first; KindPartition fails as a
// timeout — the bytes never arrive. Torn/drop are write-side faults and are
// treated as resets if a rule targets reads with them.
func (c *faultConn) Read(p []byte) (int, error) {
	switch f := c.in.On(PointConnRead, c.label); f.Kind {
	case KindNone:
	case KindDelay, KindSlow:
		time.Sleep(f.Delay)
	case KindPartition:
		c.Conn.Close()
		return 0, PartitionError(injectedf(KindPartition, "read", c.label))
	default:
		c.Conn.Close()
		return 0, injectedf(f.Kind, "read", c.label)
	}
	return c.Conn.Read(p)
}

// Write consults the injector. KindTorn writes a strict prefix of p before
// closing, so the peer observes a mid-frame failure; KindDrop discards the
// bytes while reporting success and then closes, so a response the server
// fully processed never arrives; KindReset closes immediately.
func (c *faultConn) Write(p []byte) (int, error) {
	switch f := c.in.On(PointConnWrite, c.label); f.Kind {
	case KindNone:
	case KindDelay, KindSlow:
		time.Sleep(f.Delay)
	case KindPartition:
		c.Conn.Close()
		return 0, PartitionError(injectedf(KindPartition, "write", c.label))
	case KindTorn:
		n := len(p) / 2
		if n > 0 {
			c.Conn.Write(p[:n])
		}
		c.Conn.Close()
		return n, injectedf(KindTorn, "write", c.label)
	case KindDrop:
		c.Conn.Close()
		return len(p), nil
	default:
		c.Conn.Close()
		return 0, injectedf(f.Kind, "write", c.label)
	}
	return c.Conn.Write(p)
}

// partitionErr wraps an injected-partition failure so it satisfies
// net.Error with Timeout() true: an asymmetric partition is silent loss,
// and silent loss surfaces to the caller as a deadline expiry, never as a
// connection reset. Modeling it as an *instant* timeout keeps partition
// soaks fast while exercising exactly the timeout-classification path a
// real partition would.
type partitionErr struct{ err error }

func (e *partitionErr) Error() string   { return e.err.Error() }
func (e *partitionErr) Timeout() bool   { return true }
func (e *partitionErr) Temporary() bool { return true }
func (e *partitionErr) Unwrap() error   { return e.err }

// PartitionError wraps err so it reads as a network timeout (net.Error
// with Timeout() true) while still matching ErrInjected via errors.Is.
func PartitionError(err error) error { return &partitionErr{err: err} }
