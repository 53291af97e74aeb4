// Package faultinject is a deterministic, seeded fault injector for the
// distributed stack: connection resets, torn frames, delays, dropped
// responses and whole-node crash schedules, at scripted or seeded-random
// points. A nil *Injector is valid everywhere and injects nothing.
//
// Nothing in the production stack knows the injector exists. Wire faults
// reach a connection through the dial and listen functions the RPC layer
// already takes (WrapDial for rpc.Options.Dial, WrapListen for
// ps.NodeConfig.Listen), which a test wraps around TCP or an in-memory
// network alike; media faults reach a PMem device through
// pmem.Device.SetMediaFaults.
//
// Determinism contract: every decision is a pure function of (seed, point,
// label, per-stream occurrence number, rule index) — never of wall-clock
// time, goroutine interleaving across streams, or global RNG state — so a
// chaos run replays exactly from its seed as long as each (point, label)
// stream is itself issued in a deterministic order (the RPC client
// serializes requests per connection, which gives exactly that). The
// package-level marker below puts it under the oevet determinism analyzer:
// all randomness must flow from the injected seed.
//
//oevet:deterministic-package
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/obs"
)

// Point identifies where in the stack a fault can be injected.
type Point uint8

// Injection points.
const (
	// PointDial fires when a client establishes a connection.
	PointDial Point = iota
	// PointConnRead fires on a wrapped connection's Read.
	PointConnRead
	// PointConnWrite fires on a wrapped connection's Write.
	PointConnWrite
	// PointPMemFlush fires on every simulated PMem flush (CLWB+SFENCE
	// analog): the media-fault point for bit-rot in flushed lines,
	// silently-dropped flushes and line poisoning.
	PointPMemFlush
)

func (p Point) String() string {
	switch p {
	case PointDial:
		return "dial"
	case PointConnRead:
		return "conn-read"
	case PointConnWrite:
		return "conn-write"
	case PointPMemFlush:
		return "pmem-flush"
	default:
		return fmt.Sprintf("point-%d", uint8(p))
	}
}

// Kind is the fault to inject.
type Kind uint8

// Fault kinds.
const (
	// KindNone means no fault.
	KindNone Kind = iota
	// KindReset closes the connection and fails the operation.
	KindReset
	// KindTorn writes a prefix of the frame, then closes the connection:
	// the peer observes a mid-frame failure.
	KindTorn
	// KindDelay sleeps Rule.Delay before performing the operation.
	KindDelay
	// KindDrop pretends the write succeeded but discards the bytes and
	// closes the connection afterwards, so a fully-processed response never
	// reaches the peer.
	KindDrop
	// KindCrash marks a whole-node crash point (used by CrashSchedule and
	// counted like the wire kinds; the harness performs the crash).
	KindCrash
	// KindBitRot flips one deterministic bit (chosen by Fault.Arg) inside
	// the flushed range: the media silently corrupts a line that was
	// persisted correctly.
	KindBitRot
	// KindPoison marks the flushed range as uncorrectable: subsequent reads
	// covering any part of it fail with a typed poison error until the
	// range is fully rewritten (DIMM line poisoning).
	KindPoison
	// KindPartition models an asymmetric link partition: the operation
	// fails with a timeout-flavored error (the bytes vanish into the
	// network, the caller's deadline expires) rather than a hard reset.
	// Because rules carry a direction (the Point: dial vs read vs write)
	// and a peer (the Label), a rule set can express one-way and partial
	// partitions — A cannot reach B while B still reaches A.
	KindPartition
	// KindSlow models a persistently slow link or peer: the operation is
	// delayed by Rule.Delay and then performed normally. Unlike KindDelay
	// (a transient hiccup), KindSlow is intended to be armed with Prob 1
	// over an occurrence window so a link stays slow for a while — the
	// shape a suspicion-based failure detector must catch.
	KindSlow
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindReset:
		return "reset"
	case KindTorn:
		return "torn"
	case KindDelay:
		return "delay"
	case KindDrop:
		return "drop"
	case KindCrash:
		return "crash"
	case KindBitRot:
		return "bitrot"
	case KindPoison:
		return "poison"
	case KindPartition:
		return "partition"
	case KindSlow:
		return "slow"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// ErrInjected matches (via errors.Is) every error produced by an injected
// fault, so tests can distinguish injected failures from real ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule arms one fault. A rule fires either on an exact occurrence number
// (Nth, scripted) or with probability Prob per matching call
// (seeded-random); Count bounds total fires.
type Rule struct {
	// Point selects the injection point the rule applies to.
	Point Point
	// Label restricts the rule to one stream label ("" matches every
	// label). Labels must be deterministic across runs: node indexes, not
	// ephemeral addresses.
	Label string
	// Kind is the fault to inject when the rule fires.
	Kind Kind
	// Prob fires the rule with this probability per matching call, decided
	// by the injector seed (ignored when Nth is set).
	Prob float64
	// Nth fires the rule exactly on the Nth matching call of its (point,
	// label) stream, 1-based. 0 means use Prob.
	Nth uint64
	// Count caps how many times the rule fires in total; 0 is unlimited.
	Count int
	// Delay is the sleep for KindDelay and KindSlow.
	Delay time.Duration
	// From and Until bound the rule to an occurrence window of its (point,
	// label) stream: the rule is eligible only while From <= n < Until
	// (1-based; From 0 means "from the first call", Until 0 means "never
	// heals"). Windows are how partitions and slow links start and heal
	// deterministically: the boundary is an occurrence number, a pure
	// function of the stream, never a wall-clock instant.
	From uint64
	// Until is the first occurrence number at which the rule stops
	// matching (exclusive). 0 means no upper bound.
	Until uint64
}

// Fault is one injection decision. Arg is a deterministic hash of the
// decision coordinates (seed, point, label, occurrence) that fault
// implementations use for any further choice the fault needs — e.g. which
// bit of a flushed line rots — so the whole fault, not just its firing, is
// a pure function of the seed.
type Fault struct {
	Kind  Kind
	Delay time.Duration
	Arg   uint64
}

type streamKey struct {
	point Point
	label string
}

// Injector decides faults from a seed and a rule set. The zero value of
// *Injector (nil) injects nothing.
type Injector struct {
	seed  uint64
	rules []Rule

	mu    sync.Mutex
	calls map[streamKey]uint64 // per-(point,label) occurrence counter
	fired []int                // per-rule fire count (for Count caps)

	total [numKinds]atomic.Int64

	// counters (nil, and free, without SetObs)
	injected [numKinds]*obs.Counter
}

// New builds an injector with the given seed and rules.
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		seed:  seed,
		rules: append([]Rule(nil), rules...),
		calls: make(map[streamKey]uint64),
		fired: make([]int, len(rules)),
	}
}

// Seed returns the injector's seed (printed by chaos tests so a failure
// reproduces).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// SetObs registers the faultinject_injected_<kind> counters on reg; every
// fired fault increments its kind's counter.
func (in *Injector) SetObs(reg *obs.Registry) {
	if in == nil || reg == nil {
		return
	}
	for k := KindReset; k < numKinds; k++ {
		in.injected[k] = reg.Counter("faultinject_injected_" + k.String())
	}
}

// On consumes one occurrence of the (point, label) stream and returns the
// fault to inject, KindNone for most calls. Safe for concurrent use; nil
// receiver always returns KindNone.
func (in *Injector) On(point Point, label string) Fault {
	if in == nil {
		return Fault{}
	}
	in.mu.Lock()
	key := streamKey{point: point, label: label}
	n := in.calls[key] + 1
	in.calls[key] = n
	var f Fault
	for ri := range in.rules {
		r := &in.rules[ri]
		if r.Point != point || (r.Label != "" && r.Label != label) {
			continue
		}
		if r.Count > 0 && in.fired[ri] >= r.Count {
			continue
		}
		if r.From > 0 && n < r.From {
			continue
		}
		if r.Until > 0 && n >= r.Until {
			continue
		}
		if r.Nth > 0 {
			if n != r.Nth {
				continue
			}
		} else if rand01(in.seed, uint64(point), hashLabel(label), n, uint64(ri)) >= r.Prob {
			continue
		}
		in.fired[ri]++
		arg := splitmix64(in.seed ^ splitmix64(uint64(point)<<32^hashLabel(label)^splitmix64(n)))
		f = Fault{Kind: r.Kind, Delay: r.Delay, Arg: arg}
		break
	}
	in.mu.Unlock()
	if f.Kind != KindNone {
		in.count(f.Kind)
	}
	return f
}

// FlushFault is On at PointPMemFlush in the form pmem.MediaFaults takes:
// the fault's kind by name ("none" for most calls) and its Arg. It is how a
// PMem device consults the injector without importing this package.
func (in *Injector) FlushFault(label string) (string, uint64) {
	f := in.On(PointPMemFlush, label)
	return f.Kind.String(), f.Arg
}

// count records one injected fault of the given kind (also used by
// harnesses that perform scheduled crashes themselves).
func (in *Injector) count(k Kind) {
	in.total[k].Add(1)
	in.injected[k].Add(1)
}

// CountCrash records one scheduled node crash against this injector's
// counters. Nil-safe.
func (in *Injector) CountCrash() {
	if in == nil {
		return
	}
	in.count(KindCrash)
}

// Counts returns how many faults of each kind have been injected.
func (in *Injector) Counts() map[Kind]int64 {
	out := make(map[Kind]int64)
	if in == nil {
		return out
	}
	for k := KindReset; k < numKinds; k++ {
		if v := in.total[k].Load(); v != 0 {
			out[k] = v
		}
	}
	return out
}

// splitmix64 is the same finalizer the engines use for hashing: a
// high-quality, dependency-free mix whose output is a pure function of its
// input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashLabel folds a label into the decision hash (FNV-1a).
func hashLabel(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// rand01 maps the decision coordinates to a uniform [0,1) value.
func rand01(seed, point, label, n, rule uint64) float64 {
	x := splitmix64(seed ^ splitmix64(point^splitmix64(label^splitmix64(n^splitmix64(rule)))))
	return float64(x>>11) / float64(1<<53)
}

// CrashSchedule deterministically assigns each of nodes crash points:
// perNode distinct batches in [1, batches-1] per node, derived from seed
// alone. The result maps batch -> node indexes to crash just before that
// batch's pull phase, in ascending order (nodes are visited in order and
// appear at most once per batch), so the harness kills them in a fixed
// order.
// Batch 0 is excluded so every run performs at least one full batch.
func CrashSchedule(seed uint64, nodes, batches, perNode int) map[int64][]int {
	out := make(map[int64][]int)
	if batches < 2 || perNode <= 0 {
		return out
	}
	span := uint64(batches - 1) // candidate batches 1..batches-1
	if uint64(perNode) > span {
		perNode = int(span)
	}
	for node := 0; node < nodes; node++ {
		chosen := make(map[int64]bool, perNode)
		for attempt := uint64(0); len(chosen) < perNode; attempt++ {
			b := int64(splitmix64(seed^splitmix64(uint64(node)<<32^attempt))%span) + 1
			if !chosen[b] {
				chosen[b] = true
				out[b] = append(out[b], node)
			}
		}
	}
	return out
}
