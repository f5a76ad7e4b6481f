package workload

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// referenceTrace generates length records of w the plain way: one record
// at a time, CPUs strictly round-robin, straight from the engine's
// per-CPU state. It is the oracle the strided, parallel fills must match.
func referenceTrace(w Workload, cfg Config) []trace.Record {
	e := w.Make(cfg).(*engine)
	var out []trace.Record
	seq, cpu := uint64(0), 0
	for ; e.remaining > 0; e.remaining-- {
		cs := e.cpus[cpu]
		if len(cs.actors) > 1 && cs.rng.Float64() < cs.switchProb {
			cs.cur = cs.rng.Intn(len(cs.actors))
		}
		as := cs.actors[cs.cur]
		for as.next >= len(as.queue) {
			as.queue = as.op(cs.rng, as.queue[:0])
			as.next = 0
			if len(as.queue) == 0 {
				as.queue = append(as.queue, access{pc: 0xdead0000})
			}
		}
		a := as.queue[as.next]
		as.next++
		seq += e.instrPerAccess
		out = append(out, trace.Record{Seq: seq, PC: a.pc, Addr: a.addr, CPU: uint8(cpu), Kind: kindOf(a.write)})
		cpu = (cpu + 1) % len(e.cpus)
	}
	return out
}

// mixedPulls are the request sizes fillMixed cycles through: single
// records, batches below the parallel threshold, and batches at and
// above it. 0 stands for one Next call.
var mixedPulls = []int{0, 0, 0, 5, ParallelFillRecords + 3, 0, 4096, 2 * ParallelFillRecords}

// fillMixed drains src through mixedPulls (repeating the last size until
// exhaustion) and checks that exhaustion is reported by both calls.
func fillMixed(t *testing.T, src trace.BatchSource) []trace.Record {
	t.Helper()
	var out []trace.Record
	for i := 0; ; i++ {
		want := mixedPulls[min(i, len(mixedPulls)-1)]
		if want == 0 {
			rec, ok := src.Next()
			if !ok {
				break
			}
			out = append(out, rec)
			continue
		}
		buf := make([]trace.Record, want)
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("Next yields after exhaustion")
	}
	if n := src.NextBatch(make([]trace.Record, ParallelFillRecords)); n != 0 {
		t.Fatalf("NextBatch yields %d records after exhaustion", n)
	}
	return out
}

// TestParallelFillMatchesReference: every generator, at CPU counts that
// split evenly and unevenly across goroutines, yields the reference
// record sequence whether it runs on one core or two, with Next and
// batches below, at and above ParallelFillRecords mixed — including a
// parallel fill clamped by the end of the trace. GOMAXPROCS is set here,
// so a one-core machine still runs the parallel path. -short covers each
// generator at one CPU count, rotating through all of them.
func TestParallelFillMatchesReference(t *testing.T) {
	// Long enough that the last request is a parallel fill cut short by
	// the end of the trace.
	length := uint64(3 + 5 + ParallelFillRecords + 3 + 1 + 4096 + ParallelFillRecords + 777)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cpuCounts := []int{1, 3, 4, 16}
	for wi, w := range All() {
		for ci, cpus := range cpuCounts {
			if testing.Short() && ci != wi%len(cpuCounts) {
				continue
			}
			t.Run(fmt.Sprintf("%s/cpus=%d", w.Name, cpus), func(t *testing.T) {
				cfg := Config{CPUs: cpus, Seed: 5, Length: length}
				want := referenceTrace(w, cfg)
				if uint64(len(want)) != length {
					t.Fatalf("reference has %d records, want %d", len(want), length)
				}
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					got := fillMixed(t, trace.Batched(w.Make(cfg)))
					if len(got) != len(want) {
						t.Fatalf("GOMAXPROCS=%d: %d records, want %d", procs, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("GOMAXPROCS=%d: record %d = %v, want %v", procs, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestSerialFillsDoNotAllocate: Next and batches below the parallel
// threshold generate on the caller's goroutine without allocating —
// the simulator's per-batch refill path.
func TestSerialFillsDoNotAllocate(t *testing.T) {
	for _, w := range All() {
		src := trace.Batched(w.Make(Config{CPUs: 4, Seed: 1, Length: 1 << 40}))
		buf := make([]trace.Record, 4096)
		// Warm up: actor queues grow to their working size.
		for i := 0; i < 64; i++ {
			src.NextBatch(buf)
		}
		if a := testing.AllocsPerRun(100, func() { src.Next() }); a != 0 {
			t.Errorf("%s: Next allocates %v times per call", w.Name, a)
		}
		if a := testing.AllocsPerRun(20, func() { src.NextBatch(buf) }); a != 0 {
			t.Errorf("%s: NextBatch(%d) allocates %v times per call", w.Name, len(buf), a)
		}
	}
}
