package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	// singleRecords is the trace length of one single-configuration run;
	// the first half is warm-up, as in the paper.
	singleRecords = 1_000_000
	// cpus is the simulated processor count of every workload.
	cpus = 4
	// setupReps is how many times a single-run workload sets up before
	// measuring. It sets up once more every setupEvery rounds of the
	// measured phase, so setup_s, the median, spans the whole run.
	setupReps  = 3
	setupEvery = 4
	// batchRecords is how many records the traced run decodes per call,
	// matching sim.DefaultBatchRecords.
	batchRecords = sim.DefaultBatchRecords
)

// singleSpec is a workload that runs one simulator configuration, as
// smsim does.
type singleSpec struct {
	generator  string // workload generator feeding the run
	prefetcher string
	gens       bool // sim.Config.TrackGenerations
	mmap       bool // replay from a v2 trace file through trace.OpenMapped
}

// singles are the single-configuration workloads. sms-oltp-gen is the
// paper's system fed from the generator: the stream and training layers
// do most of the work. base-gens-mmap is the Fig. 4/5 opportunity run
// replayed from a mapped trace file: no prefetcher, so the stream and
// training layers idle, and generation tracking does a large share.
var singles = map[string]singleSpec{
	"sms-oltp-gen":   {generator: "oltp-oracle", prefetcher: "sms"},
	"base-gens-mmap": {generator: "oltp-db2", prefetcher: "none", gens: true, mmap: true},
}

// single holds one single-run workload's inputs.
type single struct {
	spec    singleSpec
	gen     workload.Workload
	wcfg    workload.Config
	records uint64
	memo    []trace.Record // the whole trace in memory
	path    string         // the v2 trace file (mmap workloads)
	setups  []float64      // set-up times, s
}

func (b *single) config(gens bool) sim.Config {
	return sim.Config{
		Coherence:        coherence.DefaultConfig(),
		PrefetcherName:   b.spec.prefetcher,
		WarmupAccesses:   b.records / 2,
		TrackGenerations: gens,
	}
}

// source opens the workload's own trace source: its generator, or a fresh
// mapping of its trace file.
func (b *single) source() (trace.Source, func(), error) {
	if b.spec.mmap {
		m, err := trace.OpenMapped(b.path)
		if err != nil {
			return nil, nil, err
		}
		return m, func() { _ = m.Close() }, nil
	}
	return b.gen.Make(b.wcfg), func() {}, nil
}

// setup generates the trace into memory and, for mmap workloads, writes
// it to a v2 trace file.
func (b *single) setup() error {
	recs := make([]trace.Record, b.records)
	src := trace.Batched(b.gen.Make(b.wcfg))
	n := 0
	for n < len(recs) {
		k := src.NextBatch(recs[n:])
		if k == 0 {
			break
		}
		n += k
	}
	b.memo = recs[:n]
	if !b.spec.mmap {
		return nil
	}
	f, err := os.Create(b.path)
	if err != nil {
		return err
	}
	w, err := trace.NewV2Writer(f, trace.Header{CPUs: cpus, Workload: b.spec.generator})
	if err == nil {
		err = w.WriteBatch(b.memo)
	}
	if err == nil {
		err = w.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace file: %w", err)
	}
	return nil
}

// timedSetup runs setup and records how long it took.
func (b *single) timedSetup() error {
	b.memo = nil // let the previous trace be collected first
	t0 := time.Now()
	err := b.setup()
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return err
}

// resetup sets up again after every setupEvery-th round i.
func (b *single) resetup(i int) error {
	if i%setupEvery != setupEvery-1 {
		return nil
	}
	return b.timedSetup()
}

// pass runs one untraced simulation over src and returns the result, the
// runner, and the wall time, runner construction included.
func (b *single) pass(gens bool, open func() (trace.Source, func(), error)) (*sim.Result, *sim.Runner, time.Duration, error) {
	t0 := time.Now()
	src, closeSrc, err := open()
	if err != nil {
		return nil, nil, 0, err
	}
	defer closeSrc()
	r, err := sim.NewRunner(b.config(gens))
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := r.RunContext(context.Background(), src)
	return res, r, time.Since(t0), err
}

func (b *single) memoSource() (trace.Source, func(), error) {
	return trace.NewSliceSource(b.memo), func() {}, nil
}

// resultChecker compares each run's Result with the first one of its
// configuration, and with the pinned digest when there is one.
type resultChecker struct {
	pinned     string
	hasPin     bool // whether this seed and size have a pinned digest
	pinnedGens bool // the TrackGenerations setting the pin covers
	first      map[bool]string
}

// check returns a problem description, or "" when res matches. A run that
// failed has no result to check; its error is recorded on its own.
func (rc *resultChecker) check(gens bool, res *sim.Result, runErr error) string {
	if runErr != nil || res == nil {
		return ""
	}
	d, err := digest(res)
	if err != nil {
		return err.Error()
	}
	if rc.first[gens] == "" {
		rc.first[gens] = d
	}
	if d != rc.first[gens] {
		return fmt.Sprintf("result digest %s differs from the first run's %s", d, rc.first[gens])
	}
	if rc.hasPin && gens == rc.pinnedGens && d != rc.pinned {
		return fmt.Sprintf("result digest %s, pinned %s", d, rc.pinned)
	}
	return ""
}

func runSingle(o options, spec singleSpec, c *checks) (map[string]float64, error) {
	gen, err := workload.ByName(spec.generator)
	if err != nil {
		return nil, err
	}
	records := uint64(singleRecords)
	if o.records > 0 {
		records = o.records
	}
	dir, err := os.MkdirTemp(o.workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &single{
		spec:    spec,
		gen:     gen,
		wcfg:    workload.Config{CPUs: cpus, Seed: o.seed, Length: records},
		records: records,
		path:    filepath.Join(dir, "trace.v2"),
	}

	for i := 0; i < setupReps; i++ {
		if err := b.timedSetup(); err != nil {
			return nil, err
		}
	}
	m := map[string]float64{}

	rc := &resultChecker{pinnedGens: spec.gens, first: map[bool]string{}}
	rc.pinned, rc.hasPin = o.digests[digestKey(o.workload, o.seed, records)]
	if o.trace {
		err = b.traced(o, rc, c, m)
	} else {
		err = b.untraced(o, rc, c, m)
	}
	m["setup_s"] = median(b.setups)
	return m, err
}

// untraced alternates cold passes (the workload's own source) with warm
// passes (the in-memory trace) until the time is up.
func (b *single) untraced(o options, rc *resultChecker, c *checks, m map[string]float64) error {
	var cold, warm, allocs, peaks []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < o.seconds; i++ {
		var (
			res *sim.Result
			r   *sim.Runner
			d   time.Duration
			err error
		)
		allocs = append(allocs, allocMB(func() { res, r, d, err = b.pass(b.spec.gens, b.source) }))
		cold = append(cold, d.Seconds())
		c.record("cold run", err, rc.check(b.spec.gens, res, err))
		if err == nil {
			// The runner's caches, directory and trackers are largest at
			// the end of the run; the in-memory trace is live too.
			peaks = append(peaks, liveMB(r))
		}
		res, _, d, err = b.pass(b.spec.gens, b.memoSource)
		warm = append(warm, d.Seconds())
		c.record("warm run", err, rc.check(b.spec.gens, res, err))
		if err := b.resetup(i); err != nil {
			return err
		}
	}
	m["peak_heap_mb"] = median(peaks)
	m["cold_s"] = median(cold)
	m["warm_s"] = median(warm)
	m["records_per_s"] = float64(b.records) / median(cold)
	m["alloc_mb"] = median(allocs)
	return nil
}
