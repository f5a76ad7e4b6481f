// Package workload provides synthetic multiprocessor memory-access trace
// generators standing in for the paper's FLEXUS/Simics full-system traces of
// commercial and scientific applications (Table 1): OLTP on DB2 and Oracle,
// four TPC-H DSS queries, SPECweb on Apache and Zeus, and em3d/ocean/sparse.
//
// The generators do not execute the applications; they reproduce the
// *structural* properties of each application's access stream that the
// paper's results depend on:
//
//   - code-correlated spatial footprints (a small set of trigger PCs, each
//     with a mostly-repetitive per-region footprint),
//   - the density distribution of spatial region generations (Fig. 5),
//   - interleaving of many concurrently live regions (what separates SMS
//     from GHB, and the AGT from sectored training),
//   - revisit behaviour (OLTP buffer pools revisit pages; DSS scans touch
//     data exactly once, which defeats address-based indexing),
//   - read/write mix and cross-CPU sharing (writes trigger directory
//     invalidations, ending generations and creating false sharing at
//     large block sizes).
//
// All generation is deterministic given Config.Seed.
//
// Every generator runs on the shared generation engine, which fills each
// simulated CPU's records independently — on several goroutines at once
// for large requests (ParallelFillRecords). New generators must keep two
// invariants that make this exact:
//
//   - no mutable state shared across CPUs: an actor's op may change only
//     its own captured state and draw only from the CPU's rng it is
//     handed; structure layouts and parameters shared by all CPUs are
//     read-only once the generator is built;
//   - the round-robin interleave, which the engine owns: with N CPUs,
//     record i of the trace is CPU i mod N's next access, stamped
//     Seq = (i+1) × instructions per access.
package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Group names match the paper's four application classes.
const (
	GroupOLTP       = "OLTP"
	GroupDSS        = "DSS"
	GroupWeb        = "Web"
	GroupScientific = "Scientific"
)

// Config parameterizes trace generation.
type Config struct {
	// CPUs is the number of processors issuing accesses (paper: 16).
	CPUs int
	// Seed makes the trace reproducible.
	Seed int64
	// Scale multiplies data-structure sizes. 1.0 is the scaled-down
	// default tuned for the reproduction's cache sizes; larger values
	// grow footprints proportionally.
	Scale float64
	// Length is the number of accesses the source yields before
	// reporting exhaustion. Zero selects DefaultLength.
	Length uint64
}

// DefaultLength is the trace length (in accesses) produced when
// Config.Length is zero.
const DefaultLength = 2_000_000

// DefaultConfig returns the configuration used by the experiment harness:
// a scaled-down version of the paper's 16-CPU system.
func DefaultConfig() Config { return Config{CPUs: 4, Seed: 1, Scale: 1.0} }

func (c Config) normalized() Config {
	if c.CPUs <= 0 {
		c.CPUs = 4
	}
	if c.CPUs > 256 {
		c.CPUs = 256
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Length == 0 {
		c.Length = DefaultLength
	}
	return c
}

// Canonical returns the configuration with every default resolved: the
// stable form hashed by the result store and exchanged over the smsd HTTP
// API. Two configs that generate the same trace canonicalize identically.
func (c Config) Canonical() Config { return c.normalized() }

// scaled returns n scaled by the config's Scale factor, at least min.
func (c Config) scaled(n, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		return min
	}
	return v
}

// Workload names a generator and its paper group.
type Workload struct {
	// Name is the application name as used in the paper's figures,
	// e.g. "oltp-db2", "dss-q1", "web-apache", "sparse".
	Name string
	// Group is one of the Group* constants.
	Group string
	// Description summarizes what the generator models.
	Description string
	// Make returns a fresh trace source for the configuration. Every
	// built-in generator's source is also a trace.BatchSource, so
	// consumers that batch (trace.Batched never copies in that case)
	// pay no per-record interface dispatch.
	Make func(cfg Config) trace.Source
	// External marks workloads whose source replays an externally
	// captured trace file (the trace: family) instead of running a
	// generator: the engine's trace memo and disk tier skip them — the
	// file is already a zero-copy replay.
	External bool
}

// The shared generation engine batches natively; all four workload
// families inherit it.
var _ trace.BatchSource = (*engine)(nil)

var registry []Workload

func register(w Workload) {
	registry = append(registry, w)
}

// All returns every registered workload in paper order: OLTP, DSS, Web,
// Scientific.
func All() []Workload {
	order := map[string]int{GroupOLTP: 0, GroupDSS: 1, GroupWeb: 2, GroupScientific: 3}
	out := append([]Workload(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if order[out[i].Group] != order[out[j].Group] {
			return order[out[i].Group] < order[out[j].Group]
		}
		return false // preserve registration order within a group
	})
	return out
}

// ByName looks a workload up by its paper name. Names of the form
// "trace:<path>" resolve to the trace-file family (see tracefile.go):
// the file is opened on first use and replayed as the workload's source.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	if IsTraceName(name) {
		return byTraceName(name)
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// ByGroup returns the workloads in one paper group.
func ByGroup(group string) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Group == group {
			out = append(out, w)
		}
	}
	return out
}

// Groups returns the four paper groups in order.
func Groups() []string {
	return []string{GroupOLTP, GroupDSS, GroupWeb, GroupScientific}
}

// ---- Generation engine ----
//
// Each CPU runs a set of actors (transactions, queries, connections,
// solver threads). An actor produces "ops": short bursts of accesses with
// related addresses and PCs (e.g. one page visit, one hash probe, one
// stencil row). The engine interleaves actors within a CPU and CPUs with
// each other, which is what creates many simultaneously-live spatial
// region generations.

// access is one generated memory reference before it is stamped with a
// sequence number and CPU.
type access struct {
	pc    uint64
	addr  mem.Addr
	write bool
}

// opFunc appends the accesses of one op to buf and returns it. The engine
// calls it whenever the actor's queue drains.
type opFunc func(rng *rand.Rand, buf []access) []access

type actorState struct {
	op    opFunc
	queue []access
	next  int
}

type cpuState struct {
	rng        *rand.Rand
	actors     []*actorState
	cur        int
	switchProb float64
}

// engine implements trace.Source over a set of per-CPU actors.
type engine struct {
	cpus           []*cpuState
	seq            uint64
	instrPerAccess uint64
	nextCPU        int
	remaining      uint64 // accesses left to emit; 0 means exhausted
}

// engineConfig bundles the knobs the per-workload constructors set.
type engineConfig struct {
	cfg Config
	// actorsPerCPU controls intra-CPU interleaving (concurrent
	// transactions/connections per processor).
	actorsPerCPU int
	// switchProb is the probability of switching to a different actor
	// between consecutive accesses on a CPU; higher values interleave
	// live generations more aggressively.
	switchProb float64
	// instrPerAccess is the number of committed instructions per memory
	// access, used to advance the trace clock (Seq).
	instrPerAccess uint64
	// newActor builds the op generator for actor `idx` on `cpu`.
	newActor func(cpu, idx int, rng *rand.Rand) opFunc
}

// splitSeed derives a per-(cpu,actor) seed from the trace seed so traces
// are deterministic yet decorrelated across actors.
func splitSeed(seed int64, cpu, idx int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(cpu)*0xbf58476d1ce4e5b9 + uint64(idx)*0x94d049bb133111eb + 1
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return int64(h & 0x7fffffffffffffff)
}

func newEngine(ec engineConfig) *engine {
	cfg := ec.cfg.normalized()
	if ec.actorsPerCPU <= 0 {
		ec.actorsPerCPU = 1
	}
	if ec.instrPerAccess == 0 {
		ec.instrPerAccess = 3
	}
	e := &engine{
		instrPerAccess: ec.instrPerAccess,
		remaining:      cfg.Length,
	}
	for c := 0; c < cfg.CPUs; c++ {
		cs := &cpuState{
			rng:        rand.New(rand.NewSource(splitSeed(cfg.Seed, c, -1))),
			switchProb: ec.switchProb,
		}
		for a := 0; a < ec.actorsPerCPU; a++ {
			arng := rand.New(rand.NewSource(splitSeed(cfg.Seed, c, a)))
			cs.actors = append(cs.actors, &actorState{op: ec.newActor(c, a, arng)})
		}
		e.cpus = append(e.cpus, cs)
	}
	return e
}

// ParallelFillRecords is the smallest NextBatch request the engine splits
// across goroutines. Whole-trace fills (the engine's trace memo,
// smstrace gen, benchmark set-up) clear it; the simulator's per-batch
// refills stay serial, because waking a second core costs more than
// generating a few thousand records.
const ParallelFillRecords = 1 << 16

// Next implements trace.Source. It always generates on the calling
// goroutine, so its one-record buffer stays on the stack.
func (e *engine) Next() (trace.Record, bool) {
	var one [1]trace.Record
	n, c0, seq := e.claim(1)
	if n == 0 {
		return trace.Record{}, false
	}
	e.fillLanes(one[:], c0, seq, 0, 1)
	return one[0], true
}

// NextBatch implements trace.BatchSource natively: the whole per-record
// generation path (actor switch, queue refill, record stamping) runs in
// tight per-CPU loops with no interface dispatch, and all four workload
// families batch through it since every generator is an engine.
//
// CPUs interleave round-robin and each one's stream depends only on its
// own state, so every CPU fills its own strided slots of dst. Requests of
// at least ParallelFillRecords split the CPUs into contiguous groups, one
// goroutine each (at most GOMAXPROCS); the output is byte-identical to a
// serial fill.
func (e *engine) NextBatch(dst []trace.Record) int {
	n, c0, seq := e.claim(len(dst))
	lanes := min(n, len(e.cpus))
	workers := 1
	if n >= ParallelFillRecords {
		workers = min(runtime.GOMAXPROCS(0), lanes)
	}
	if workers <= 1 {
		e.fillLanes(dst[:n], c0, seq, 0, lanes)
		return n
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(from, to int) {
			defer wg.Done()
			e.fillLanes(dst[:n], c0, seq, from, to)
		}(w*lanes/workers, (w+1)*lanes/workers)
	}
	e.fillLanes(dst[:n], c0, seq, 0, lanes/workers)
	wg.Wait()
	return n
}

// claim reserves the next n (at most want) records of the trace and
// returns n, the CPU of the first one, and the sequence number before it.
func (e *engine) claim(want int) (n, c0 int, seq uint64) {
	n = want
	if uint64(n) > e.remaining {
		n = int(e.remaining)
	}
	c0, seq = e.nextCPU, e.seq
	e.remaining -= uint64(n)
	e.nextCPU = (c0 + n) % len(e.cpus)
	e.seq += uint64(n) * e.instrPerAccess
	return n, c0, seq
}

// fillLanes generates lanes [from, to) of a claimed batch dst. Lane k
// holds records k, k+ncpu, k+2·ncpu, … of the batch, all issued by CPU
// (c0+k) mod ncpu; record i carries Seq seq+(i+1)·instrPerAccess.
func (e *engine) fillLanes(dst []trace.Record, c0 int, seq uint64, from, to int) {
	ncpu := len(e.cpus)
	for k := from; k < to; k++ {
		cpu := (c0 + k) % ncpu
		cs := e.cpus[cpu]
		for i := k; i < len(dst); i += ncpu {
			if len(cs.actors) > 1 && cs.rng.Float64() < cs.switchProb {
				cs.cur = cs.rng.Intn(len(cs.actors))
			}
			as := cs.actors[cs.cur]
			for as.next >= len(as.queue) {
				as.queue = as.op(cs.rng, as.queue[:0])
				as.next = 0
				if len(as.queue) == 0 {
					// Defensive: an op that generates nothing would spin
					// forever; emit a filler access instead.
					as.queue = append(as.queue, access{pc: 0xdead0000, addr: 0})
				}
			}
			a := as.queue[as.next]
			as.next++
			dst[i] = trace.Record{
				Seq:  seq + uint64(i+1)*e.instrPerAccess,
				PC:   a.pc,
				Addr: a.addr,
				CPU:  uint8(cpu),
				Kind: kindOf(a.write),
			}
		}
	}
}

func kindOf(write bool) trace.Kind {
	if write {
		return trace.Write
	}
	return trace.Read
}

// ---- shared helpers used by the concrete workloads ----

// pcSite builds a synthetic program counter for (workload id, op type,
// step). Distinct steps within an op are distinct instructions in the
// traversal loop, exactly as compiled code would produce.
func pcSite(workload, op, step int) uint64 {
	return 0x400000 + uint64(workload)<<20 + uint64(op)<<8 + uint64(step)*4
}

// regionAddr composes an address from a structure base, a region index and
// a block offset within the region (64B blocks, 2kB regions by default for
// structure layout purposes; callers pass geometry-specific strides when
// they need other alignments).
const (
	blockBytes  = 64
	pageBytes   = 2048 // database page / structure unit used by generators
	pageBlocks  = pageBytes / blockBytes
	hugeStride  = 1 << 33 // separation between unrelated structures
	addrSpaceLo = 1 << 30 // keep generated addresses away from 0
)

func structBase(workload, structure int) mem.Addr {
	return mem.Addr(addrSpaceLo + uint64(workload)<<40 + uint64(structure)*hugeStride)
}

func pageAddr(base mem.Addr, page int, block int) mem.Addr {
	return base + mem.Addr(page)*pageBytes + mem.Addr(block)*blockBytes
}

// zipfPick picks an index in [0,n) with a nested hot-set bias: with
// probability hotProb the choice narrows to the first hotFrac*n entries,
// recursively, so the head of the distribution is much hotter than its
// body — a cheap Zipf approximation. The self-similar skew matters: it
// gives the L1 a small resident core (row-level reuse at 64 B blocks)
// while the tail still spans the full structure (off-chip misses at L2).
func zipfPick(rng *rand.Rand, n int, hotProb, hotFrac float64) int {
	if n <= 1 {
		return 0
	}
	for n > 1 && rng.Float64() < hotProb {
		hot := int(float64(n) * hotFrac)
		if hot < 1 {
			break
		}
		n = hot
	}
	return rng.Intn(n)
}
