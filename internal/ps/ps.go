// Package ps assembles a parameter-server node: a storage engine of a
// chosen kind, with the PMem device image optionally persisted to a file so
// the node can recover after a restart (Sec. V-C), served over the RPC
// protocol or used in process. Node is the only thing in the tree that puts
// an engine on the wire: oeps, the public openembedding.Server and every
// soak run the same one. The wire is whatever NodeConfig.Listen opens — TCP
// by default; a soak's fault-injecting or in-memory listener otherwise.
//
// A pmem-oe node is restartable in-process: Crash tears down the server
// and engine and drops unpersisted device state, Restart recovers a fresh
// engine from the surviving image and re-serves the same address at a
// bumped epoch (fencing stale clients), and the rollback RPC swaps in an
// engine recovered at an older retained checkpoint for coordinated cluster
// replay (DESIGN.md §10).
package ps

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/engines"
	"openembedding/internal/obs"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/serve"
)

// NodeConfig configures one PS node.
type NodeConfig struct {
	// Engine selects the storage engine: "pmem-oe" (default), "dram-ps",
	// "ori-cache" or "pmem-hash".
	Engine string
	// Store is the psengine configuration. A pmem-oe node defaults
	// RetainCheckpoints to 2, not the bare engine's 1: the rollback it
	// serves may target the checkpoint before the latest (DESIGN.md §10),
	// so that one has to exist. An explicit 1 is honoured.
	//
	// Store.Obs is the node's one home for observability: the registry
	// reaches the engine (engine_* metrics and spans), the RPC server
	// (rpc_server_* metrics) and the serve handler (serve_* metrics), and
	// ObsHandler serves it and dumps its span ring over HTTP. Nil disables
	// them.
	Store psengine.Config
	// PMemImage, when non-empty, is the file the PMem device image is
	// loaded from (if present) and saved to on Close.
	PMemImage string
	// CheckpointDir configures the incremental checkpointer for the
	// baseline engines.
	CheckpointDir string
	// Listen opens the listener the node serves on: net.Listen("tcp", addr)
	// when nil. Restart re-listens on the same address through it. A soak
	// passes a listener that injects wire faults, or an in-memory network.
	// Nothing here configures faults: PMem media faults are armed on the
	// node's device (pmem.Device.SetMediaFaults, reached through the
	// engine's Arena), which outlives Crash, Restart and rollback.
	Listen func(addr string) (net.Listener, error)
	// Serve enables the online inference tier on a pmem-oe node: the RPC
	// server answers MsgPullBag through a serve.Handler over the engine's
	// lock-free snapshot path (DESIGN.md §14). The handler lives as long as
	// the node: Crash/Restart/rollback swap the engine under it, so its
	// counters carry over.
	Serve bool
}

// Node is one parameter-server node: an engine over its device, unserved
// after Open and on the wire after Listen. On a pmem-oe node it is also the
// server's rpc.Control — rollback, scrub and migration act on the node, not
// on the engine of the moment.
type Node struct {
	cfg NodeConfig
	dev *pmem.Device // nil for dram-ps

	// core is the PMem-OE engine currently behind the node. Restart and
	// rollback replace it (holding mu) and hand the new one to the server
	// and the serve handler, which keep it behind an atomic pointer of
	// their own. Nil on a baseline node, whose engine never changes.
	core     atomic.Pointer[core.Engine]
	baseline psengine.Engine

	// mu guards srv/addr/epoch/crashed across Listen/Crash/Restart/rollback.
	// Never held while closing the server (its handler drain would
	// deadlock against a rollback RPC waiting for mu).
	mu      sync.Mutex
	srv     *rpc.Server // nil while unserved or crashed
	addr    string      // bound address; kept across Crash for Restart
	epoch   int64
	crashed bool

	// RecoveredBatch is the checkpoint the engine recovered to when the
	// node started from an existing PMem image (-1 otherwise); Restart
	// updates it to the checkpoint the restarted engine recovered to.
	RecoveredBatch int64

	// serve is the node's MsgPullBag endpoint (nil unless cfg.Serve),
	// created with the first engine; adoptEngine points it at each later
	// one.
	serve *serve.Handler
}

// StartNode is Open followed by Listen(addr).
func StartNode(addr string, cfg NodeConfig) (*Node, error) {
	n, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.Listen(addr); err != nil {
		// Not n.Close: a node that never served must not save an image.
		n.Engine().Close()
		n.closeDevice()
		return nil, err
	}
	return n, nil
}

// Open builds the node's engine — recovering from an existing PMem image
// when one is configured and present — and leaves it unserved: Engine is
// usable in process, Listen puts it on the wire.
func Open(cfg NodeConfig) (_ *Node, err error) {
	if cfg.Engine == "" {
		cfg.Engine = "pmem-oe"
	}
	oe := cfg.Engine == "pmem-oe"
	if oe && cfg.Store.RetainCheckpoints == 0 {
		cfg.Store.RetainCheckpoints = 2
	}
	store := cfg.Store.WithDefaults()
	cfg.Store = store
	n := &Node{cfg: cfg, RecoveredBatch: -1}
	defer func() {
		if err != nil {
			n.closeDevice()
		}
	}()

	var arena *pmem.Arena
	if engines.UsesPMem(cfg.Engine) {
		payload := pmem.FloatBytes(store.EntryFloats())
		slots := store.Capacity * psengine.ArenaSlotsFactor
		existing, err := n.openDevice(pmem.ArenaLayout(payload, slots))
		if err != nil {
			return nil, err
		}
		if existing && oe {
			if _, err := n.recoverLocked(); err != nil {
				return nil, fmt.Errorf("ps: recover: %w", err)
			}
			return n, nil
		}
		// A fresh device, or a baseline's image: only PMem-OE recovers from
		// one, the baselines format over it.
		if arena, err = pmem.NewArena(n.dev, payload, slots); err != nil {
			return nil, err
		}
	}
	if !oe {
		eng, err := engines.New(cfg.Engine, store, arena, cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		n.baseline = eng
		return n, nil
	}
	eng, err := core.New(store, arena)
	if err != nil {
		return nil, err
	}
	n.adoptEngine(eng)
	return n, nil
}

// closeDevice releases the node's device, if it has one, without saving it:
// the undo of a failed Open or Listen.
func (n *Node) closeDevice() {
	if n.dev != nil {
		n.dev.Close() //nolint:errcheck // the open error is the one to report
	}
}

// openDevice sets n.dev to the configured PMem image when that file exists
// and to a fresh device of the given capacity otherwise.
func (n *Node) openDevice(capacity int) (existing bool, err error) {
	timed := device.NewTimedPMem(n.cfg.Store.Meter)
	if n.cfg.PMemImage != "" {
		if _, serr := os.Stat(n.cfg.PMemImage); serr == nil {
			n.dev, err = pmem.OpenFile(n.cfg.PMemImage, timed)
			return true, err
		}
	}
	n.dev = pmem.NewDevice(capacity, timed)
	return false, nil
}

// Listen serves the node on addr ("127.0.0.1:0" picks a free port). A node
// listens on one address at a time.
func (n *Node) Listen(addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed {
		return fmt.Errorf("ps: listen on a crashed node")
	}
	if n.srv != nil {
		return fmt.Errorf("ps: node already listening on %s", n.addr)
	}
	return n.listenLocked(addr)
}

// listenLocked starts the RPC server at the node's current engine and
// epoch. Caller holds mu.
func (n *Node) listenLocked(addr string) error {
	listen := n.cfg.Listen
	if listen == nil {
		listen = func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
	}
	ln, err := listen(addr)
	if err != nil {
		return fmt.Errorf("ps: listen: %w", err)
	}
	opts := rpc.ServerOptions{Epoch: n.epoch, Obs: n.cfg.Store.Obs}
	if n.baseline == nil {
		opts.Control = n
	}
	if n.serve != nil { // only ever set on a pmem-oe node
		opts.Bags = n.serve
	}
	n.srv = rpc.ServeListener(ln, n.Engine(), opts)
	n.addr = n.srv.Addr()
	return nil
}

// Unlisten stops serving: every client connection drops and the address is
// released. The node stays open for in-process use and may Listen again.
func (n *Node) Unlisten() error {
	n.mu.Lock()
	srv := n.srv
	n.srv, n.addr = nil, ""
	n.mu.Unlock()
	if srv == nil {
		return nil
	}
	// Closed outside mu: the handler drain may include a rollback RPC.
	return srv.Close()
}

// matchIntervals turns wire hash intervals into the key predicate the
// engine's migration hooks take. rpc.KeyHash is the hash the cluster ring
// places keys with, so the predicate selects exactly the keys the
// coordinator's move plan intends.
func matchIntervals(ivs []rpc.HashInterval) func(key uint64) bool {
	return func(key uint64) bool { return rpc.CoversKey(ivs, key) }
}

// MigrateRange serves MsgMigrateRange: export one page of the moving range.
// A read — no state change, no fence.
func (n *Node) MigrateRange(since int64, from uint64, max int, ivs []rpc.HashInterval) ([]psengine.MigEntry, bool, error) {
	return n.core.Load().ExportRange(matchIntervals(ivs), since, from, max)
}

// AdoptRange serves MsgAdoptRange: install migrated entries (durably), then
// fence the node epoch — clients bound to the pre-migration ownership view
// must re-synchronize before their next batch-protocol request, exactly as
// after a rollback. The coordinator itself re-adopts the epoch on its
// connection right after the flip.
func (n *Node) AdoptRange(entries []psengine.MigEntry) error {
	err := n.core.Load().AdoptEntries(entries)
	// Fence even on error: a partial adopt may already have installed
	// entries, changing the served key set.
	n.fence()
	return err
}

// DropRange serves MsgDropRange: remove the moved range — index, cache and
// durable records — then fence the node epoch: the node's key set
// regressed, and any client that still believes the old ownership must be
// rejected rather than repopulate dropped keys.
func (n *Node) DropRange(ivs []rpc.HashInterval) (int, error) {
	dropped, err := n.core.Load().DropRange(matchIntervals(ivs))
	// Fence even on error: a drop that failed mid-way may already have
	// removed entries.
	if dropped > 0 || err == nil {
		n.fence()
	}
	return dropped, err
}

// adoptEngine puts a fresh core engine behind the node — behind the serve
// handler and the RPC server too, when the node has them. Caller holds mu,
// or is Open.
func (n *Node) adoptEngine(eng *core.Engine) {
	if n.cfg.Serve {
		if n.serve == nil {
			n.serve = serve.New(eng, n.cfg.Store.Obs)
		} else {
			n.serve.SetEngine(eng)
		}
	}
	n.core.Store(eng)
	if n.srv != nil {
		n.srv.SetEngine(eng)
	}
}

// recoverLocked rebuilds the engine from the device's durable image and
// adopts it: what a process start over an existing image and an in-process
// Restart both do. Caller holds mu, or is Open.
func (n *Node) recoverLocked() (int64, error) {
	eng, ckpt, err := core.Recover(n.cfg.Store, n.dev)
	if err != nil {
		return -1, err
	}
	n.adoptEngine(eng)
	n.RecoveredBatch = ckpt
	return ckpt, nil
}

// ServeHandler returns the node's serving handler (nil unless the node was
// started with NodeConfig.Serve); the same handler serves across
// Crash/Restart and rollback.
func (n *Node) ServeHandler() *serve.Handler { return n.serve }

// fence bumps the node epoch after a request lost or replaced state, so
// every client re-synchronizes through the recovery protocol before
// touching it. A crashed node skips the bump: Restart bumps the epoch
// itself, which fences every client strictly harder.
//
// oevet:fence-apply
func (n *Node) fence() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed {
		n.fenceEpochLocked()
	}
}

// fenceEpochLocked bumps the node epoch and publishes it to the serving RPC
// server. Caller holds mu.
//
// oevet:fence-apply
func (n *Node) fenceEpochLocked() {
	n.epoch++
	if n.srv != nil {
		n.srv.SetEpoch(n.epoch)
	}
}

// Scrub serves MsgScrub: one full integrity pass over the node's records.
// State-losing heals (restored or fenced entries) fence the epoch.
func (n *Node) Scrub() (psengine.ScrubReport, error) {
	rep, err := n.core.Load().Scrub()
	// Fence BEFORE surfacing any error: a pass that failed mid-way may
	// already have restored or fenced entries (the report carries the
	// partial counts), and state already lost must fence the epoch even
	// when the surrounding operation fails.
	if rep.Restored+rep.Fenced > 0 {
		n.fence()
	}
	return rep, err
}

// ObsHandler returns the node's observability HTTP handler (/metrics,
// /metrics.json, /debug/obs). With no registry configured it still serves
// well-formed empty documents.
func (n *Node) ObsHandler() http.Handler { return obs.Handler(n.cfg.Store.Obs) }

// Addr returns the node's bound address (stable across Crash/Restart).
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addr
}

// Epoch returns the node's current epoch: 0 at start, bumped by every
// Restart and rollback.
func (n *Node) Epoch() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Engine returns the engine currently behind the node, for in-process use.
// Restart and rollback replace it: a caller that outlives one asks again.
func (n *Node) Engine() psengine.Engine {
	if n.baseline != nil {
		return n.baseline
	}
	return n.core.Load()
}

// Crash simulates a node failure in-process: the server stops (every
// client connection drops), the engine is torn down, and unpersisted
// device state is discarded exactly as a power loss would. The PMem image
// survives; Restart recovers from it. Only pmem-oe nodes — whose PMem
// image is crash-consistent by design — support it.
func (n *Node) Crash() error {
	if n.baseline != nil {
		return fmt.Errorf("ps: crash unsupported for engine %q", n.cfg.Engine)
	}
	n.mu.Lock()
	if n.crashed {
		n.mu.Unlock()
		return fmt.Errorf("ps: node already crashed")
	}
	srv := n.srv
	n.mu.Unlock()
	// Close the server outside mu: its handler drain may include a
	// rollback RPC that needs mu.
	var err error
	if srv != nil {
		err = srv.Close()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Drain background maintenance, then drop whatever the "power loss"
	// catches un-persisted. Records and checkpoint IDs were Persisted on
	// write, so the surviving image is exactly the durable state.
	n.core.Load().Close()
	n.dev.Crash()
	n.srv = nil
	n.crashed = true
	return err
}

// Restart recovers a crashed node from its surviving PMem image and, when
// it was listening, re-serves the SAME address at a bumped epoch. Clients
// synchronized to the old epoch are fenced on their next batch-protocol
// request and must run the cluster recovery protocol (rollback +
// AdoptEpoch).
func (n *Node) Restart() (int64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed {
		return -1, fmt.Errorf("ps: restart of a node that is not crashed")
	}
	ckpt, err := n.recoverLocked()
	if err != nil {
		return -1, fmt.Errorf("ps: restart: %w", err)
	}
	// The server below starts at the bumped epoch.
	n.fenceEpochLocked()
	if n.addr != "" {
		if err := n.listenLocked(n.addr); err != nil {
			n.core.Load().Close()
			return -1, fmt.Errorf("ps: restart: re-listen on %s: %w", n.addr, err)
		}
	}
	n.crashed = false
	return ckpt, nil
}

// Rollback serves the rollback RPC: it swaps in an engine recovered at
// the requested retained checkpoint and bumps the epoch so every other
// client re-synchronizes before touching the rolled-back state. Idempotent
// — rolling back to the checkpoint the engine is already at is a recovery
// to the same state.
func (n *Node) Rollback(target int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed {
		return fmt.Errorf("ps: rollback of a crashed node")
	}
	if err := n.core.Load().Close(); err != nil && !errors.Is(err, psengine.ErrClosed) {
		return fmt.Errorf("ps: rollback: draining engine: %w", err)
	}
	eng, _, err := core.RecoverTo(n.cfg.Store, n.dev, target)
	if err != nil {
		//oevet:fence-ok recovery failed before any engine was adopted: the old engine is drained and every request gets ErrClosed, a stronger barrier than an epoch bump
		return fmt.Errorf("ps: rollback to %d: %w", target, err)
	}
	n.adoptEngine(eng)
	n.fenceEpochLocked()
	return nil
}

// Close stops serving, closes the engine, saves the PMem image when one is
// configured so a restarted node can recover, and then closes the device,
// which releases its memory. Closing a crashed node saves and closes the
// device.
func (n *Node) Close() error {
	n.mu.Lock()
	srv, crashed := n.srv, n.crashed
	n.mu.Unlock()
	var err error
	if !crashed {
		if srv != nil {
			err = srv.Close()
		}
		if cerr := n.Engine().Close(); err == nil {
			err = cerr
		}
	}
	if n.dev != nil {
		if n.cfg.PMemImage != "" {
			if serr := n.Save(); err == nil {
				err = serr
			}
		}
		if cerr := n.dev.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Save writes the device's durable image to NodeConfig.PMemImage (a real
// PMem DIMM would not need this; the file stands in for the DAX mapping).
func (n *Node) Save() error {
	if n.dev == nil || n.cfg.PMemImage == "" {
		return fmt.Errorf("ps: no PMem image configured")
	}
	return n.dev.Save(n.cfg.PMemImage)
}
