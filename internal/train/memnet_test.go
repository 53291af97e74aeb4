package train

import (
	"fmt"
	"net"
	"sync"
)

// memNet is an in-memory named network: a listener is bound to a name, and
// a dial to that name is a net.Pipe whose far end the listener's Accept
// returns. It is the soaks' transport without the kernel. A name can be
// listened on again once its listener closed (a restarted node re-listens
// on its address), and a dial to a name nobody listens on is refused at
// once, as TCP refuses a closed port.
//
// The in-memory soaks reach the same fault decisions as the TCP ones
// because every rule they arm is on a dial or write stream: a stream's
// occurrence number counts dials and Write calls, and the framing issues
// the same Write calls over a pipe as over a socket. Read calls would not
// count alike — they depend on how the bytes were segmented.
type memNet struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

func newMemNet() *memNet { return &memNet{listeners: make(map[string]*memListener)} }

// Listen binds name.
func (n *memNet) Listen(name string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[name]; ok {
		return nil, fmt.Errorf("memnet: listen %s: address in use", name)
	}
	l := &memListener{net: n, name: name, conns: make(chan net.Conn), done: make(chan struct{})}
	n.listeners[name] = l
	return l, nil
}

// Dial connects to the listener bound to name; it blocks until that
// listener accepts or closes.
func (n *memNet) Dial(name string) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[name]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("memnet: dial %s: connection refused", name)
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("memnet: dial %s: connection refused", name)
	}
}

type memListener struct {
	net   *memNet
	name  string
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unbinds the name and fails pending and later Accepts.
func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.name)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.name) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }
