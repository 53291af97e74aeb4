// Package ps assembles a parameter-server node: a storage engine of a
// chosen kind behind the RPC server, with the PMem device image optionally
// persisted to a file so the node can recover after a restart (Sec. V-C).
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
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/engines/dramps"
	"openembedding/internal/engines/oricache"
	"openembedding/internal/engines/pmemhash"
	"openembedding/internal/faultinject"
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
	// Store is the psengine configuration.
	Store psengine.Config
	// PMemImage, when non-empty, is the file the PMem device image is
	// loaded from (if present) and saved to on Close.
	PMemImage string
	// CheckpointDir configures the incremental checkpointer for the
	// baseline engines.
	CheckpointDir string
	// Inject, when set, arms the deterministic fault injector on the node's
	// RPC server (server-side wire faults). Nil leaves the hot path
	// untouched.
	Inject *faultinject.Injector
	// Label is the injector stream label for this node's server-side
	// connections; it must be deterministic across runs (a node index, not
	// an address). Defaults to "server".
	Label string
	// MediaLabel, when non-empty (and Inject is set), arms the PMem media-
	// fault model on the node's device with this injector stream label:
	// flushes can then rot a bit, be silently dropped, or poison the flushed
	// range, per the injector's rules. Empty leaves media faults off. The
	// label must be deterministic across runs (a node index, not an
	// address). Only meaningful for PMem-backed engines; the model is armed
	// after the arena is formatted and stays armed across Crash/Restart.
	MediaLabel string
	// Obs enables node observability: the registry is handed to the engine
	// (engine_* metrics) and the RPC server (rpc_server_* metrics), and
	// ObsHandler serves it over HTTP. Nil disables all of it.
	Obs *obs.Registry
	// Spans is the node's span ring, handed to the engine; ObsHandler dumps
	// it as Chrome trace JSON. Nil disables tracing.
	Spans *obs.Tracer
	// Serve enables the online inference tier on a pmem-oe node: the RPC
	// server answers MsgPullBag through a serve.Handler over the engine's
	// lock-free snapshot path (DESIGN.md §14). The handler lives as long as
	// the node: Crash/Restart/rollback swap the engine under it, so its
	// replicas and its admission watermark (ServeHandler().SetMaxInflight)
	// carry over.
	Serve bool
}

// Node is one running parameter-server node.
type Node struct {
	cfg NodeConfig
	box *engineBox
	dev *pmem.Device // nil for dram-ps

	// mu guards srv/addr/epoch/crashed across Crash/Restart/rollback.
	// Never held while closing the server (its handler drain would
	// deadlock against a rollback RPC waiting for mu).
	mu      sync.Mutex
	srv     *rpc.Server
	addr    string
	epoch   int64
	crashed bool

	// RecoveredBatch is the checkpoint the engine recovered to when the
	// node started from an existing PMem image (-1 otherwise); Restart
	// updates it to the checkpoint the restarted engine recovered to.
	RecoveredBatch int64

	// lastRecover is the most recent recovery's outcome (zero until the
	// node has recovered at least once). Guarded by mu.
	lastRecover core.RecoverInfo

	// pendingFence records a scrub-driven state loss whose epoch fence has
	// not been applied yet. The engine consumes its loss signal before
	// notifying (scrubLoss.Swap in the maintainer), so the notification
	// must never be dropped: integrityFence sets this BEFORE trying mu and
	// every applier clears it under mu (applyPendingFenceLocked).
	pendingFence atomic.Bool

	// serve is the node's MsgPullBag and MsgReplicate endpoint (nil unless
	// cfg.Serve), created with the first engine; adoptEngine points it at
	// each later one.
	serve *serve.Handler
}

// StartNode builds the engine (recovering from an existing PMem image when
// one is configured and present) and serves it on addr.
func StartNode(addr string, cfg NodeConfig) (*Node, error) {
	if cfg.Engine == "" {
		cfg.Engine = "pmem-oe"
	}
	store := cfg.Store.WithDefaults()
	store.Obs = cfg.Obs
	store.Spans = cfg.Spans
	cfg.Store = store

	n := &Node{cfg: cfg, RecoveredBatch: -1}
	payload := pmem.FloatBytes(store.EntryFloats())
	slots := store.Capacity * psengine.ArenaSlotsFactor

	newDevice := func() (*pmem.Device, bool, error) {
		timed := device.NewTimedPMem(store.Meter)
		if cfg.PMemImage != "" {
			if _, err := os.Stat(cfg.PMemImage); err == nil {
				d, err := pmem.OpenFile(cfg.PMemImage, timed)
				return d, true, err
			}
		}
		return pmem.NewDevice(pmem.ArenaLayout(payload, slots), timed), false, nil
	}

	var engine psengine.Engine
	switch cfg.Engine {
	case "pmem-oe":
		dev, existing, err := newDevice()
		if err != nil {
			return nil, err
		}
		n.dev = dev
		if existing {
			// Media faults armed before recovery: the rebuild scan verifies
			// checksums and must see the fault model a live node would.
			n.armMediaFaults()
			eng, ckpt, err := core.Recover(store, dev)
			if err != nil {
				return nil, fmt.Errorf("ps: recover: %w", err)
			}
			n.adoptEngine(eng)
			engine = eng
			n.RecoveredBatch = ckpt
			n.lastRecover = eng.RecoverInfo()
		} else {
			arena, err := pmem.NewArena(dev, payload, slots)
			if err != nil {
				return nil, err
			}
			// Armed after the arena format (formatting is setup, not a fault
			// target) but before the engine exists, so the engine sees the
			// model and turns on flush verification.
			n.armMediaFaults()
			eng, err := core.New(store, arena)
			if err != nil {
				return nil, err
			}
			n.adoptEngine(eng)
			engine = eng
		}
	case "dram-ps":
		eng, err := dramps.New(store, dramps.Options{CheckpointDir: cfg.CheckpointDir})
		if err != nil {
			return nil, err
		}
		engine = eng
	case "ori-cache":
		dev, _, err := newDevice()
		if err != nil {
			return nil, err
		}
		n.dev = dev
		arena, err := pmem.NewArena(dev, payload, slots)
		if err != nil {
			return nil, err
		}
		eng, err := oricache.New(store, arena, oricache.Options{CheckpointDir: cfg.CheckpointDir})
		if err != nil {
			return nil, err
		}
		engine = eng
	case "pmem-hash":
		dev, _, err := newDevice()
		if err != nil {
			return nil, err
		}
		n.dev = dev
		arena, err := pmem.NewArena(dev, payload, slots)
		if err != nil {
			return nil, err
		}
		eng, err := pmemhash.New(store, arena)
		if err != nil {
			return nil, err
		}
		engine = eng
	default:
		return nil, fmt.Errorf("ps: unknown engine %q", cfg.Engine)
	}
	n.box = newEngineBox(engine)

	srv, err := rpc.ServeOpts(addr, n.box, n.serverOptions())
	if err != nil {
		engine.Close()
		return nil, err
	}
	n.srv = srv
	n.addr = srv.Addr()
	return n, nil
}

func (n *Node) serverOptions() rpc.ServerOptions {
	opts := rpc.ServerOptions{
		Epoch:  n.epoch,
		Inject: n.cfg.Inject,
		Label:  n.cfg.Label,
		Obs:    n.cfg.Obs,
	}
	if n.cfg.Engine == "pmem-oe" {
		opts.Rollback = n.rollbackTo
		opts.Scrub = n.scrubRPC
		opts.Migrate = n.migrateRPC
		opts.Adopt = n.adoptRPC
		opts.Drop = n.dropRPC
		if n.serve != nil {
			opts.Bags = n.serve
			// Replicas are serving state only — installing them needs no fence.
			opts.Replicate = n.serve.MergeReplicas
		}
	}
	return opts
}

// matchIntervals turns wire hash intervals into the key predicate the
// engine's migration hooks take. rpc.KeyHash is the hash the cluster ring
// places keys with, so the predicate selects exactly the keys the
// coordinator's move plan intends.
func matchIntervals(ivs []rpc.HashInterval) func(key uint64) bool {
	return func(key uint64) bool { return rpc.CoversKey(ivs, key) }
}

// migrateRPC serves MsgMigrateRange: export one page of the moving range.
// A read — no state change, no fence.
func (n *Node) migrateRPC(since int64, afterKey uint64, max int, ivs []rpc.HashInterval) ([]psengine.MigEntry, bool, error) {
	return n.box.ExportRange(matchIntervals(ivs), since, afterKey, max)
}

// adoptRPC serves MsgAdoptRange: install migrated entries (durably), then
// fence the node epoch — clients bound to the pre-migration ownership view
// must re-synchronize before their next batch-protocol request, exactly as
// after a rollback. The coordinator itself re-adopts the epoch on its
// connection right after the flip.
func (n *Node) adoptRPC(entries []psengine.MigEntry) error {
	err := n.box.AdoptEntries(entries)
	// Fence even on error: a partial adopt may already have installed
	// entries, changing the served key set.
	n.parkFence()
	n.mu.Lock()
	n.applyPendingFenceLocked()
	n.mu.Unlock()
	return err
}

// dropRPC serves MsgDropRange: remove the moved range — index, cache and
// durable records — then fence the node epoch: the node's key set
// regressed, and any client that still believes the old ownership must be
// rejected rather than repopulate dropped keys.
func (n *Node) dropRPC(ivs []rpc.HashInterval) (int, error) {
	dropped, err := n.box.DropRange(matchIntervals(ivs))
	// Fence even on error: a drop that failed mid-way may already have
	// removed entries.
	if dropped > 0 || err == nil {
		n.parkFence()
		n.mu.Lock()
		n.applyPendingFenceLocked()
		n.mu.Unlock()
	}
	return dropped, err
}

// armMediaFaults arms the PMem media-fault model on the node's device when
// configured (no-op otherwise).
func (n *Node) armMediaFaults() {
	if n.dev != nil && n.cfg.Inject != nil && n.cfg.MediaLabel != "" {
		n.dev.SetMediaFaults(n.cfg.Inject, n.cfg.MediaLabel)
	}
}

// adoptEngine wires node-level integrity plumbing into a fresh core engine:
// a background scrub round that loses state (restores or fences entries)
// must fence the node's epoch so every client re-synchronizes through the
// recovery protocol before touching the regressed state. On a serving node
// it also puts the engine behind the node's one serve.Handler.
func (n *Node) adoptEngine(eng *core.Engine) {
	eng.SetIntegrityNotify(n.integrityFence)
	if !n.cfg.Serve {
		return
	}
	if n.serve == nil {
		n.serve = serve.New(eng, n.cfg.Obs)
	} else {
		n.serve.SetEngine(eng)
	}
}

// ServeHandler returns the node's serving handler (nil unless the node was
// started with NodeConfig.Serve); the same handler serves across
// Crash/Restart and rollback.
func (n *Node) ServeHandler() *serve.Handler { return n.serve }

// integrityFence records and (when possible, immediately) applies an epoch
// fence after scrub-driven state loss. It runs on a maintainer goroutine,
// so it must never block on mu: a concurrent Crash/Close holds mu while
// draining the maintainer pool, and waiting here would deadlock. It must
// also never LOSE the fence — the engine consumed the loss signal before
// notifying (scrubLoss.Swap), and mu's other takers (Addr, Epoch,
// LastRecoverInfo, Close) do not bump the epoch — so the loss is parked in
// pendingFence first and, when TryLock finds mu busy, handed to a detached
// goroutine that may block: the maintainer-pool drain never waits on it,
// and applying late is safe because a crash/restart/rollback that raced
// past bumps the epoch itself (making the parked fence redundant —
// applyPendingFenceLocked drops it on a crashed/closed node) and
// rpc.Server.SetEpoch is an atomic store, valid even after server close.
//
// oevet:fence-obligated
func (n *Node) integrityFence() {
	n.parkFence()
	if n.mu.TryLock() {
		n.applyPendingFenceLocked()
		n.mu.Unlock()
		return
	}
	go func() {
		n.mu.Lock()
		n.applyPendingFenceLocked()
		n.mu.Unlock()
	}()
}

// parkFence parks the node's epoch-fence obligation in pendingFence for a
// later applyPendingFenceLocked (or for any epoch bump, which subsumes it).
// Parking must happen before any attempt on mu so the obligation cannot be
// dropped between "loss observed" and "fence applied" — the exact shape of
// the PR 5 dropped-fence bug.
//
// oevet:fence-park
func (n *Node) parkFence() { n.pendingFence.Store(true) }

// fenceEpochLocked bumps the node epoch, publishes it to the serving RPC
// server, and clears any parked fence the bump subsumes (a bump re-fences
// every client strictly harder than the scrub fence would have). Caller
// holds mu.
//
// oevet:fence-apply
func (n *Node) fenceEpochLocked() {
	n.pendingFence.Store(false)
	n.epoch++
	if n.srv != nil {
		n.srv.SetEpoch(n.epoch)
	}
}

// applyPendingFenceLocked applies a parked integrity fence, if any. Caller
// holds mu. On a crashed node the fence is dropped as redundant: the
// restart/recovery path bumps the epoch itself, which re-fences every
// client strictly harder than the scrub fence would have.
//
// oevet:fence-apply
func (n *Node) applyPendingFenceLocked() {
	if !n.pendingFence.Swap(false) {
		return
	}
	if n.crashed || n.srv == nil {
		return
	}
	n.fenceEpochLocked()
}

// scrubRPC serves MsgScrub: one full integrity pass over the node's
// records. State-losing heals (restored or fenced entries) fence the epoch
// exactly like the background path.
func (n *Node) scrubRPC() (psengine.ScrubReport, error) {
	rep, err := n.box.Scrub()
	// Fence BEFORE surfacing any error: a pass that failed mid-way may
	// already have restored or fenced entries (the report carries the
	// partial counts), and state already lost must fence the epoch even
	// when the surrounding operation fails.
	if rep.Restored+rep.Fenced > 0 {
		n.parkFence()
		n.mu.Lock()
		n.applyPendingFenceLocked()
		n.mu.Unlock()
	}
	return rep, err
}

// LastRecoverInfo reports the most recent recovery's outcome (zero value
// until the node has recovered at least once): which checkpoint it landed
// on and whether corrupt durable header words forced a cur→prev fallback.
func (n *Node) LastRecoverInfo() core.RecoverInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastRecover
}

// ObsHandler returns the node's observability HTTP handler (/metrics,
// /metrics.json, /debug/obs). With no registry or tracer configured it still
// serves well-formed empty documents.
func (n *Node) ObsHandler() http.Handler { return obs.Handler(n.cfg.Obs, n.cfg.Spans) }

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

// Engine exposes the underlying storage engine (for embedded use). The
// returned handle stays valid across Crash/Restart/rollback — it forwards
// to whichever engine currently backs the node.
func (n *Node) Engine() psengine.Engine { return n.box }

// Crash simulates a node failure in-process: the server stops (every
// client connection drops), the engine is torn down, and unpersisted
// device state is discarded exactly as a power loss would. The PMem image
// survives; Restart recovers from it. Only pmem-oe nodes — whose PMem
// image is crash-consistent by design — support it.
func (n *Node) Crash() error {
	if n.cfg.Engine != "pmem-oe" {
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
	if err := srv.Close(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Drain background maintenance, then drop whatever the "power loss"
	// catches un-persisted. Records and checkpoint IDs were Persisted on
	// write, so the surviving image is exactly the durable state.
	if err := n.box.Close(); err != nil && !errors.Is(err, psengine.ErrClosed) {
		_ = err // the engine state is discarded either way
	}
	n.dev.Crash()
	n.crashed = true
	return nil
}

// Restart recovers a crashed node from its surviving PMem image and
// re-serves the SAME address at a bumped epoch. Clients synchronized to
// the old epoch are fenced on their next batch-protocol request and must
// run the cluster recovery protocol (rollback + AdoptEpoch).
func (n *Node) Restart() (int64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed {
		return -1, fmt.Errorf("ps: restart of a node that is not crashed")
	}
	eng, ckpt, err := core.Recover(n.cfg.Store, n.dev)
	if err != nil {
		return -1, fmt.Errorf("ps: restart: %w", err)
	}
	n.adoptEngine(eng)
	n.lastRecover = eng.RecoverInfo()
	n.box.set(eng)
	// This bump subsumes any fence parked against the old engine's state.
	// (It lands on the closed old server — harmless — and the new server
	// below starts at the bumped epoch via serverOptions.)
	n.fenceEpochLocked()
	srv, err := rpc.ServeOpts(n.addr, n.box, n.serverOptions())
	if err != nil {
		eng.Close()
		return -1, fmt.Errorf("ps: restart: re-listen on %s: %w", n.addr, err)
	}
	n.srv = srv
	n.crashed = false
	n.RecoveredBatch = ckpt
	return ckpt, nil
}

// rollbackTo serves the rollback RPC: it swaps in an engine recovered at
// the requested retained checkpoint and bumps the epoch so every other
// client re-synchronizes before touching the rolled-back state. Idempotent
// — rolling back to the checkpoint the engine is already at is a recovery
// to the same state.
func (n *Node) rollbackTo(target int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed {
		return fmt.Errorf("ps: rollback of a crashed node")
	}
	old := n.box.get()
	if err := old.Close(); err != nil && !errors.Is(err, psengine.ErrClosed) {
		return fmt.Errorf("ps: rollback: draining engine: %w", err)
	}
	eng, _, err := core.RecoverTo(n.cfg.Store, n.dev, target)
	if err != nil {
		//oevet:fence-ok recovery failed before any engine was adopted: the old engine is drained and every request gets ErrClosed, a stronger barrier than an epoch bump
		return fmt.Errorf("ps: rollback to %d: %w", target, err)
	}
	n.adoptEngine(eng)
	n.lastRecover = eng.RecoverInfo()
	n.box.set(eng)
	// This bump subsumes any fence parked against the old engine's state.
	n.fenceEpochLocked()
	return nil
}

// Close stops serving, closes the engine and, when configured, saves the
// PMem image so a restarted node can recover. Closing a crashed node only
// saves the image.
func (n *Node) Close() error {
	n.mu.Lock()
	srv, crashed := n.srv, n.crashed
	n.mu.Unlock()
	var err error
	if !crashed {
		err = srv.Close()
		if cerr := n.box.Close(); err == nil {
			err = cerr
		}
	}
	if n.dev != nil && n.cfg.PMemImage != "" {
		if serr := n.dev.Save(n.cfg.PMemImage); err == nil {
			err = serr
		}
	}
	return err
}
