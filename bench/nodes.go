package main

import (
	"fmt"

	"openembedding/internal/cluster"
	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/obs"
	"openembedding/internal/pmem"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/serve"
	"openembedding/internal/simclock"
)

// arenaFactor is ps.StartNode's default arena headroom (records per unit of
// capacity); the hand-assembled nodes use the same geometry.
const arenaFactor = 3

// layers is what a traced run installs at the seams; nil for the untraced
// run, whose end-to-end numbers must not pay for any of it.
type layers struct {
	tr    *tracer
	reg   *obs.Registry
	meter *simclock.Meter
}

func newLayers(nodes int) *layers {
	return &layers{tr: newTracer(nodes), reg: obs.NewRegistry(), meter: simclock.NewMeter()}
}

// psNode is one parameter-server node on loopback TCP.
type psNode struct {
	addr    string
	engine  psengine.Engine // for Stats
	core    *core.Engine    // traced runs only
	handler *serve.Handler  // serving nodes only
	stop    func() error
}

// newEngine builds a PMem-OE engine over a fresh arena, as ps.StartNode
// does, so the traced run can put decorators around it.
func newEngine(store psengine.Config) (*core.Engine, error) {
	store = store.WithDefaults()
	payload := pmem.FloatBytes(store.EntryFloats())
	slots := store.Capacity * arenaFactor
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(store.Meter))
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		return nil, err
	}
	return core.New(store, arena)
}

// startNode serves one engine on 127.0.0.1:0. Untraced it is exactly
// ps.StartNode; traced it is the same parts assembled by hand so that the
// engine and bag-server decorators sit between the RPC server and them.
func startNode(store psengine.Config, serving bool, idx int, ly *layers) (*psNode, error) {
	if ly == nil {
		n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{Store: store, Serve: serving})
		if err != nil {
			return nil, err
		}
		return &psNode{addr: n.Addr(), engine: n.Engine(), handler: n.ServeHandler(), stop: n.Close}, nil
	}
	store.Obs, store.Meter = ly.reg, ly.meter
	eng, err := newEngine(store)
	if err != nil {
		return nil, err
	}
	n := &psNode{engine: eng, core: eng}
	opts := rpc.ServerOptions{Obs: ly.reg}
	if serving {
		n.handler = serve.New(eng, ly.reg)
		opts.Bags = &bagSpy{BagServer: n.handler, node: idx, tr: ly.tr}
	}
	srv, err := rpc.ServeOpts("127.0.0.1:0", &engineSpy{Engine: eng, node: idx, tr: ly.tr}, opts)
	if err != nil {
		eng.Close()
		return nil, err
	}
	n.addr = srv.Addr()
	n.stop = func() error {
		err := srv.Close()
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return n, nil
}

// dial opens a cluster client to the nodes; traced, it reports into the
// run's registry.
func dial(nodes []*psNode, ly *layers) (*cluster.Client, error) {
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	var opts cluster.Options
	if ly != nil {
		opts.Obs = ly.reg
		opts.RPC.Obs = ly.reg
	}
	return cluster.DialOpts(dim, addrs, opts)
}

// dialReplay opens the private per-node connections rung replays run on.
// They report nowhere, so the registry's rpc counters stay those of the
// real traffic.
func dialReplay(nodes []*psNode) ([]*rpc.Client, error) {
	out := make([]*rpc.Client, len(nodes))
	for i, n := range nodes {
		c, err := rpc.Dial(n.addr)
		if err != nil {
			closeConns(out)() //nolint:errcheck // the dial error is the one to report
			return nil, fmt.Errorf("replay connection to node %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// closeConns returns the tear-down step of a set of replay connections.
func closeConns(cs []*rpc.Client) func() error {
	return func() error {
		for _, c := range cs {
			if c != nil {
				c.Close()
			}
		}
		return nil
	}
}

// closer collects tear-down steps and runs them in reverse.
type closer []func() error

func (c *closer) add(f func() error) { *c = append(*c, f) }

func (c *closer) close() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]() //nolint:errcheck // tear-down after the results are in
	}
	*c = nil
}
