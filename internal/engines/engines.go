// Package engines builds a storage engine by name: the proposed PMem-OE
// engine (internal/core) or one of the paper's three comparison points. It
// is the one place an engine name meets its constructor; sizing the arena
// stays with the caller, because the callers differ on it.
package engines

import (
	"fmt"

	"openembedding/internal/core"
	"openembedding/internal/engines/dramps"
	"openembedding/internal/engines/oricache"
	"openembedding/internal/engines/pmemhash"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
)

// UsesPMem reports whether the named engine keeps its records on a PMem
// arena, which New then needs; false for dram-ps and for unknown names.
func UsesPMem(kind string) bool {
	switch kind {
	case "pmem-oe", "ori-cache", "pmem-hash":
		return true
	}
	return false
}

// New builds the engine named kind ("pmem-oe", "dram-ps", "ori-cache" or
// "pmem-hash") over a freshly formatted arena — nil when !UsesPMem(kind).
// ckptDir is the incremental-checkpoint directory of the engines that have a
// separate checkpointer (dram-ps, ori-cache); empty leaves it off.
func New(kind string, store psengine.Config, arena *pmem.Arena, ckptDir string) (psengine.Engine, error) {
	switch kind {
	case "pmem-oe":
		return core.New(store, arena)
	case "dram-ps":
		return dramps.New(store, dramps.Options{CheckpointDir: ckptDir})
	case "ori-cache":
		return oricache.New(store, arena, oricache.Options{CheckpointDir: ckptDir})
	case "pmem-hash":
		return pmemhash.New(store, arena)
	}
	return nil, fmt.Errorf("engines: unknown engine %q", kind)
}
