package cluster

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/faultinject"
	"openembedding/internal/obs"
	"openembedding/internal/ps"
	"openembedding/internal/rpc"
)

// Gray-failure tolerance tests (DESIGN.md §16): the counted node health
// table, and what a serving read does with it — ask the owner, or skip a
// down one and say so at once.

// TestHealthStateMachine walks the health table over exchange sequences.
// A step is an exchange and a node: f transport failure, t timeout, a
// answer, c corruption answer, r remote error, e epoch fence (owner reads);
// s a read that must skip the owner, o one that must ask it; R a
// membership change (Join/Leave).
func TestHealthStateMachine(t *testing.T) {
	_, remote := rpc.DecodeResponse(rpc.ErrBody(errors.New("boom")))
	_, corrupt := rpc.DecodeResponse(rpc.CorruptErrBody(errors.New("bad checksum")))
	outcome := map[byte]error{
		'f': &rpc.TransportError{Addr: "n", Op: "pullbag", Err: io.ErrUnexpectedEOF},
		't': &rpc.TimeoutError{Addr: "n", Op: "pullbag", After: time.Second},
		'a': nil,
		'c': corrupt,
		'r': remote,
		'e': &rpc.EpochError{Addr: "n", ClientEpoch: 1, ServerEpoch: 2},
	}
	skips := func(n int) string { return strings.Repeat("s0 ", n) }
	cases := []struct {
		name       string
		steps      string
		down       [2]bool
		suspicions int64
	}{
		{"two failures leave a node up", "f0 t0 o0", [2]bool{}, 0},
		{"three make it down", "f0 t0 f0 s0", [2]bool{true}, 1},
		{"remote, corrupt and epoch answers are answers", "f0 f0 c0 f0 f0 r0 f0 f0 e0 o0", [2]bool{}, 0},
		{"a read answer brings a down node up", "f0 f0 f0 a0 o0", [2]bool{}, 1},
		{"every 8th skip asks the owner while nobody probes",
			"f0 f0 f0 " + skips(7) + "o0 f0 " + skips(7) + "o0 a0 o0", [2]bool{}, 1},
		{"going down again re-arms the half-open read",
			"f0 f0 f0 s0 s0 a0 f0 f0 f0 " + skips(7) + "o0", [2]bool{true}, 2},
		{"nodes are independent", "f1 f1 f1 o0 s1 f0 f0 a0 s1 o0", [2]bool{false, true}, 1},
		{"a membership change resets every node", "f0 f0 f0 f1 f1 R o0 o1 f1 o1", [2]bool{}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			h := &health{suspicions: reg.Counter("cluster_suspicions"), downNodes: reg.Gauge("cluster_suspected_nodes")}
			h.reset(2)
			for i, st := range strings.Fields(tc.steps) {
				op := st[0]
				if op == 'R' {
					h.reset(2)
					continue
				}
				n := int(st[1] - '0')
				switch op {
				case 's', 'o':
					if got := h.skip(n); got != (op == 's') {
						t.Fatalf("step %d (%s): skip = %v", i, st, got)
					}
				default:
					h.record(n, outcome[op])
				}
			}
			wantDown := int64(0)
			for n, want := range tc.down {
				if h.down(n) != want {
					t.Errorf("node %d down = %v, want %v", n, !want, want)
				}
				if want {
					wantDown++
				}
			}
			s := reg.Snapshot()
			if got := s.Counters["cluster_suspicions"]; got != tc.suspicions {
				t.Errorf("cluster_suspicions = %d, want %d up→down transitions", got, tc.suspicions)
			}
			if got := s.Gauges["cluster_suspected_nodes"]; got != wantDown {
				t.Errorf("cluster_suspected_nodes = %d, want %d", got, wantDown)
			}
		})
	}
}

// oneKeyBags returns the offsets of n one-key bags: each bag pools to its
// key's row.
func oneKeyBags(n int) []uint32 {
	offs := make([]uint32, n+1)
	for i := range offs {
		offs[i] = uint32(i)
	}
	return offs
}

// rowsOf reads keys' rows through c, as one-key bags.
func rowsOf(t *testing.T, label string, c *Client, keys []uint64) []float32 {
	t.Helper()
	rows := make([]float32, len(keys)*c.dim)
	if err := c.PullBags(false, oneKeyBags(len(keys)), keys, rows); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return rows
}

// readExact reads keys' rows through c and requires them bit-exact to want.
func readExact(t *testing.T, label string, c *Client, keys []uint64, want []float32) {
	t.Helper()
	for i, v := range rowsOf(t, label, c, keys) {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: row [%d] = %v, want %v (bit-exact)", label, i, v, want[i])
		}
	}
}

// splitByOwner splits keys into those node owns and the others.
func splitByOwner(c *Client, keys []uint64, node int) (owned, others []uint64) {
	for _, k := range keys {
		if c.Owner(k) == node {
			owned = append(owned, k)
		} else {
			others = append(others, k)
		}
	}
	return owned, others
}

// TestDownOwnerFailsFast: a read the health table skips costs nothing.
// Node 1 accepts connections and never answers. After downAfter reads of
// its keys have each waited out the deadline, the next halfOpenEvery-1 fail
// at once, with an error that names node 1 and is rpc.ErrUnavailable, and
// without a connection attempt; the halfOpenEvery-th goes to the owner as
// the half-open read. The live node's keys answer bit-exact throughout.
func TestDownOwnerFailsFast(t *testing.T) {
	const deadline = 150 * time.Millisecond
	live := startElasticNode(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			mu.Lock()
			held = append(held, conn) // never read, never answered
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	})

	c, err := DialOpts(4, []string{live.Addr(), ln.Addr().String()}, Options{
		RPC: rpc.Options{Timeout: deadline, MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	deadKeys, liveKeys := splitByOwner(c, testKeys(64), 1)
	if len(deadKeys) == 0 || len(liveKeys) == 0 {
		t.Fatalf("setup: %d keys on the silent node, %d on the live one", len(deadKeys), len(liveKeys))
	}
	// The live node's keys are trained through a client of that node alone:
	// the batch protocol broadcasts, and the silent node would fail it.
	trainer, err := Dial(4, []string{live.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trainer.Close() })
	w := trainStep(t, trainer, 0, liveKeys, 1)
	for i := range w {
		w[i] -= 0.1
	}

	named := fmt.Sprintf("node 1 (%s)", ln.Addr())
	read := func() (time.Duration, error) {
		start := time.Now()
		err := c.PullBags(false, []uint32{0, uint32(len(deadKeys))}, deadKeys, make([]float32, c.dim))
		return time.Since(start), err
	}
	readExact(t, "live keys, before", c, liveKeys, w)
	for i := 0; i < downAfter; i++ {
		if _, err := read(); err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("read %d of the silent node's keys: %v, want an error naming %s", i, err, named)
		}
	}
	if !c.Down(1) || c.Down(0) {
		t.Fatalf("after %d timed-out reads: down = (%v, %v), want (false, true)", downAfter, c.Down(0), c.Down(1))
	}
	dials := accepts.Load()
	for i := 0; i < halfOpenEvery-1; i++ {
		took, err := read()
		if took > deadline/3 {
			t.Fatalf("skipped read %d took %v; the owner's deadline is %v, and a skipped owner must cost none of it", i, took, deadline)
		}
		if err == nil || !strings.Contains(err.Error(), named) || !errors.Is(err, rpc.ErrUnavailable) {
			t.Fatalf("skipped read %d: %v, want an rpc.ErrUnavailable naming %s", i, err, named)
		}
		if got := accepts.Load(); got != dials {
			t.Fatalf("skipped read %d: the silent node accepted %d connections, want %d", i, got, dials)
		}
		readExact(t, fmt.Sprintf("live keys, beside skipped read %d", i), c, liveKeys, w)
	}
	if took, err := read(); err == nil || took < deadline/2 {
		t.Fatalf("read %d after the node went down took %v (%v): the half-open read must reach the owner", halfOpenEvery, took, err)
	}
	if got := accepts.Load(); got != dials+1 {
		t.Fatalf("the half-open read opened %d connections, want 1", got-dials)
	}
	readExact(t, "live keys, after", c, liveKeys, w)
}

// TestSuspectedOwnerAskedAfterAll (named for the ladder step that used to
// ask a skipped sole owner after all): a sole owner that its reads took
// down is not asked while it is down — not even though it is listening
// again — and its reads fail at once, attributed to it. It comes back
// through its own reads: the halfOpenEvery-th skipped read asks it, it
// answers, and from then on its keys answer live.
func TestSuspectedOwnerAskedAfterAll(t *testing.T) {
	n := startElasticNode(t)
	addr := n.Addr()
	c, err := DialOpts(4, []string{addr}, Options{
		RPC: rpc.Options{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	keys := testKeys(8)
	w := trainStep(t, c, 0, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}
	named := fmt.Sprintf("node 0 (%s)", addr)
	offs := oneKeyBags(len(keys))
	out := make([]float32, len(keys)*c.dim)
	read := func(label string) {
		t.Helper()
		err := c.PullBags(false, offs, keys, out)
		if err == nil || !strings.Contains(err.Error(), named) || !errors.Is(err, rpc.ErrUnavailable) {
			t.Fatalf("%s: %v, want an rpc.ErrUnavailable naming %s", label, err, named)
		}
	}
	// The node is away for downAfter reads, then back on its address, with
	// its state untouched.
	if err := n.Unlisten(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < downAfter; r++ {
		read(fmt.Sprintf("read %d of an unlistened owner", r))
	}
	if !c.Down(0) {
		t.Fatalf("node not down after %d failed reads", downAfter)
	}
	if err := n.Listen(addr); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < halfOpenEvery-1; r++ {
		read(fmt.Sprintf("skipped read %d of a down owner", r))
	}
	if !c.Down(0) {
		t.Fatal("a skipped read brought the owner up")
	}
	readExact(t, "the half-open read", c, keys, w)
	if c.Down(0) {
		t.Fatal("an answered half-open read left the owner down")
	}
	readExact(t, "after the half-open read", c, keys, w)
}

// TestBreakerPerNode (named for the per-connection breakers the health
// table replaced): health is per node, and a skipped owner read never
// reaches the wire. Reads against a node that kills every connection take
// it down after downAfter failed reads while the live node stays up; from
// then on the dead node's share fails at once, attributed, without a
// connection attempt spent on it, and the live node's keys still answer.
func TestBreakerPerNode(t *testing.T) {
	live := startElasticNode(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.Close()
		}
	}()
	c, err := DialOpts(4, []string{live.Addr(), ln.Addr().String()}, Options{
		RPC: rpc.Options{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	deadKeys, liveKeys := splitByOwner(c, testKeys(32), 1)
	named := fmt.Sprintf("node 1 (%s)", ln.Addr())
	read := func(keys []uint64) error {
		return c.PullBags(false, []uint32{0, uint32(len(keys))}, keys, make([]float32, c.dim))
	}
	for i := 0; i < downAfter; i++ {
		if err := read(deadKeys); err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("read %d of the dead node's keys: %v, want an error naming %s", i, err, named)
		}
	}
	if !c.Down(1) || c.Down(0) {
		t.Fatalf("after %d failed reads: down = (%v, %v), want (false, true)", downAfter, c.Down(0), c.Down(1))
	}
	dials := accepts.Load()
	if dials == 0 {
		t.Fatal("setup: the failed reads opened no connection")
	}
	for i := 0; i < halfOpenEvery-1; i++ {
		if err := read(deadKeys); !errors.Is(err, rpc.ErrUnavailable) || !strings.Contains(err.Error(), named) {
			t.Fatalf("skipped read %d: %v, want an rpc.ErrUnavailable naming %s", i, err, named)
		}
	}
	if got := accepts.Load(); got != dials {
		t.Fatalf("dead node accepted %d connections, want %d (a skipped owner is not dialed)", got, dials)
	}
	if err := read(liveKeys); err != nil {
		t.Fatalf("live node read: %v", err)
	}
}

// TestServingGrayFailureSoak walks what serving does under a gray failure.
// Node 1 is silently partitioned from the serving client — every write
// lost as an instant timeout — for an occurrence window of the link's
// write stream, which then closes. While the partition holds, reads of
// node 1's keys fail attributed to it; once it is down they stop reaching
// the wire, except every halfOpenEvery-th, the half-open read, which fails
// too while the partition holds and leaves node 1 down. The other nodes'
// keys answer bit-exact throughout. When the window has closed, the next
// half-open read reaches node 1, answers bit-exact and brings it up.
func TestServingGrayFailureSoak(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, startElasticNode(t).Addr())
	}
	// Train through a clean client; the chaos client below only serves.
	trainer, err := DialOpts(4, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trainer.Close() })
	keys := testKeys(36)
	trainStep(t, trainer, 0, keys, 1)

	// The window ends at the first write the link makes after the
	// partition has done its work: the dial's hello, then one hello per
	// attempt of the downAfter failed reads and of the first half-open read.
	const attempts = 2
	inj := faultinject.New(7,
		faultinject.Rule{Point: faultinject.PointConnWrite, Label: "node1", Kind: faultinject.KindPartition, Prob: 1,
			Until: 1 + (downAfter+1)*attempts + 1},
	)
	labels := map[string]string{}
	for i, a := range addrs {
		labels[a] = fmt.Sprintf("node%d", i)
	}
	tcpDial := func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) }
	reg := obs.NewRegistry()
	c, err := DialOpts(4, addrs, Options{
		RPC: rpc.Options{
			MaxAttempts: attempts,
			Timeout:     2 * time.Second,
			Dial:        inj.WrapDial(tcpDial, func(addr string) string { return labels[addr] }),
			Obs:         reg,
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	deadKeys, liveKeys := splitByOwner(c, keys, 1)
	deadRows, liveRows := rowsOf(t, "trainer", trainer, deadKeys), rowsOf(t, "trainer", trainer, liveKeys)
	named := fmt.Sprintf("node 1 (%s)", addrs[1])
	// A write into the partition times out, so this counts the reads' wire
	// attempts on node 1.
	wire := func() int64 { return reg.Snapshot().Counters["rpc_client_timeouts"] }
	readDead := func() error {
		return c.PullBags(false, oneKeyBags(len(deadKeys)), deadKeys, make([]float32, len(deadKeys)*c.dim))
	}
	partitioned := func(label string) {
		t.Helper()
		before := wire()
		if err := readDead(); !errors.Is(err, rpc.ErrTimeout) || !strings.Contains(err.Error(), named) {
			t.Fatalf("%s: %v, want a timeout naming %s", label, err, named)
		}
		if got := wire() - before; got != attempts {
			t.Fatalf("%s made %d wire attempts, want %d", label, got, attempts)
		}
		readExact(t, label+", the other nodes' keys", c, liveKeys, liveRows)
	}
	skipped := func(label string) {
		t.Helper()
		before := wire()
		if err := readDead(); !errors.Is(err, rpc.ErrUnavailable) || !strings.Contains(err.Error(), named) {
			t.Fatalf("%s: %v, want an rpc.ErrUnavailable naming %s", label, err, named)
		}
		if got := wire() - before; got != 0 {
			t.Fatalf("%s of a down owner reached the wire %d times", label, got)
		}
		readExact(t, label+", the other nodes' keys", c, liveKeys, liveRows)
	}
	onlyNode1Down := func(label string) {
		t.Helper()
		if !c.Down(1) || c.Down(0) || c.Down(2) {
			t.Fatalf("%s: down = (%v, %v, %v), want only node 1", label, c.Down(0), c.Down(1), c.Down(2))
		}
	}

	// Partitioned and up: every read of node 1's keys reaches the wire,
	// times out on every attempt and fails attributed to node 1.
	for r := 0; r < downAfter; r++ {
		partitioned(fmt.Sprintf("partitioned read %d", r))
	}
	onlyNode1Down(fmt.Sprintf("after %d failed reads", downAfter))

	// Down and still partitioned: its reads stop reaching the wire, and
	// the half-open read that does fails and leaves it down.
	for r := 0; r < halfOpenEvery-1; r++ {
		skipped(fmt.Sprintf("down, read %d", r))
	}
	partitioned("the first half-open read")
	onlyNode1Down("after a failed half-open read")

	// The window has closed: the next half-open read brings node 1 up.
	for r := 0; r < halfOpenEvery-1; r++ {
		skipped(fmt.Sprintf("down, healed, read %d", r))
	}
	readExact(t, "the second half-open read, node 1's keys", c, deadKeys, deadRows)
	if c.Down(1) {
		t.Fatal("node 1 still down after an answered half-open read")
	}
	readExact(t, "healed, node 1's keys", c, deadKeys, deadRows)
	readExact(t, "healed, the other nodes' keys", c, liveKeys, liveRows)
	s := reg.Snapshot()
	if got := s.Counters["cluster_suspicions"]; got != 1 {
		t.Fatalf("cluster_suspicions = %d, want 1", got)
	}
	if got := s.Gauges["cluster_suspected_nodes"]; got != 0 {
		t.Fatalf("cluster_suspected_nodes = %d, want 0", got)
	}
}

// TestNoGoroutineLeakAfterClose is the post-soak leak gate: a client that
// has trained and served, and its nodes, must unwind completely on Close.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()

	var ns []*ps.Node
	var addrs []string
	for i := 0; i < 2; i++ {
		n := startElasticNode(t)
		ns = append(ns, n)
		addrs = append(addrs, n.Addr())
	}
	c, err := DialOpts(4, addrs, Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(8)
	trainStep(t, c, 0, keys, 1)
	if err := c.PullBags(false, []uint32{0, uint32(len(keys))}, keys, make([]float32, c.dim)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after close\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
