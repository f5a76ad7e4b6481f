package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/store"
)

const (
	fig8Name = "fig8-store"
	// fig8Records is the trace length of each Figure 8 cell.
	fig8Records = 200_000
	// fig8SetupReps is how many times the set-up runs before measuring,
	// and again after each sample on that sample's store, so setup_s,
	// the median, spans the whole run.
	fig8SetupReps = 10
	// warmReps is how many warm passes follow each cold pass; warm_s is
	// the median over all of them.
	warmReps = 5
)

// fig8Sample is what one cold pass and the warm passes after it measured.
type fig8Sample struct {
	cold   float64   // s
	warm   []float64 // s
	getMs  float64   // median store read of one result
	heapMB float64   // live heap after the cold pass, the session reachable

	// From engine events of the cold pass (trace mode only).
	queueP50, queueP80, busyP50, busyP80, busyFrac float64

	counts map[string]float64 // exact engine and store counters
}

// cellSink turns engine events into per-cell queue waits and busy times.
type cellSink struct {
	mu      sync.Mutex
	start   time.Time
	started map[string]time.Time
	queued  []float64 // ms
	busy    []float64 // ms
	settled int
}

func (s *cellSink) event(ev engine.Event) {
	now := time.Now()
	key := ev.Workload + "/" + ev.Variant
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case engine.RunStarted:
		s.started[key] = now
	case engine.RunFinished, engine.RunFailed:
		s.settled++
		if t, ok := s.started[key]; ok {
			s.queued = append(s.queued, millis(t.Sub(s.start)))
			s.busy = append(s.busy, millis(now.Sub(t)))
		}
	case engine.RunCached:
		s.settled++
	}
}

// fig8Options are the session options of every pass.
func fig8Options(o options) exp.Options {
	records := uint64(fig8Records)
	if o.records > 0 {
		records = o.records
	}
	return exp.Options{CPUs: cpus, Seed: o.seed, Length: records, Parallel: runtime.NumCPU()}
}

// openSession opens the store at dir and binds a fresh session to it.
func openSession(opts exp.Options, dir string) (*exp.Session, *store.Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	s := exp.NewSession(opts)
	s.SetStore(st)
	return s, st, nil
}

// canonical is a Result's JSON after one store round trip, so results
// read back from the store compare equal to the ones simulated.
func canonical(res *sim.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	var back sim.Result
	if err := json.Unmarshal(b, &back); err != nil {
		return "", err
	}
	return digest(&back)
}

// fig8Bench runs and checks Figure 8 passes.
type fig8Bench struct {
	opts   exp.Options
	trace  bool
	c      *checks
	pinned string
	hasPin bool // whether this seed and size have a pinned digest
	// The figure's grid without its custom cells, and each cell's store
	// key, keyed "workload/variant".
	plan engine.Plan
	keys map[string]string
	// Digests of the first cold pass: the figure text and each cell.
	firstText  string
	firstCells map[string]string
	setups     []float64 // s
}

// setup opens the store at dir, binds a session to it, and resolves the
// store key of every cell of the figure's grid, fig8SetupReps times. It
// records the time of each.
//
// After each sample it runs on that sample's store, before the store is
// removed: set-ups measured right after removing a store ran up to twelve
// times slower on a loaded host, tracking the file system rather than the
// program.
func (b *fig8Bench) setup(dir string) error {
	for i := 0; i < fig8SetupReps; i++ {
		t0 := time.Now()
		s, _, err := openSession(b.opts, dir)
		if err != nil {
			return err
		}
		plan := exp.Fig8Plan(s.Options())
		plan.Customs = nil
		keys := map[string]string{}
		for _, w := range plan.Workloads {
			for _, v := range plan.Variants {
				keys[w+"/"+v.Key] = s.RunKey(w, v.Config)
			}
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		b.plan, b.keys = plan, keys
	}
	return nil
}

func runFig8(o options, c *checks) (map[string]float64, error) {
	b := &fig8Bench{opts: fig8Options(o), trace: o.trace, c: c}
	b.pinned, b.hasPin = o.digests[digestKey(o.workload, o.seed, b.opts.Length)]
	root, err := os.MkdirTemp(o.workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	if err := b.setup(filepath.Join(root, "setup")); err != nil {
		return nil, err
	}

	var samples []*fig8Sample
	var allocs []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < o.seconds; i++ {
		dir := filepath.Join(root, fmt.Sprintf("store-%d", i))
		var smp *fig8Sample
		a := allocMB(func() { smp, err = b.pass(dir) })
		if err != nil {
			return nil, err
		}
		samples = append(samples, smp)
		allocs = append(allocs, a)
		if err := b.setup(dir); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	med := func(f func(*fig8Sample) float64) float64 {
		var xs []float64
		for _, smp := range samples {
			xs = append(xs, f(smp))
		}
		return median(xs)
	}
	var warm []float64
	for _, smp := range samples {
		warm = append(warm, smp.warm...)
	}
	cold := med(func(s *fig8Sample) float64 { return s.cold })
	last := samples[len(samples)-1]
	m := map[string]float64{
		"setup_s":                  median(b.setups),
		"cold_s":                   cold,
		"warm_s":                   median(warm),
		"records_per_s":            last.counts["engine.simulations"] * float64(b.opts.Length) / cold,
		"peak_heap_mb":             med(func(s *fig8Sample) float64 { return s.heapMB }),
		"alloc_mb":                 median(allocs),
		"store.get_ms":             med(func(s *fig8Sample) float64 { return s.getMs }),
		"engine.queue_wait_ms_p50": med(func(s *fig8Sample) float64 { return s.queueP50 }),
		"engine.queue_wait_ms_p80": med(func(s *fig8Sample) float64 { return s.queueP80 }),
		"engine.cell_busy_ms_p50":  med(func(s *fig8Sample) float64 { return s.busyP50 }),
		"engine.cell_busy_ms_p80":  med(func(s *fig8Sample) float64 { return s.busyP80 }),
		"engine.worker_busy_frac":  med(func(s *fig8Sample) float64 { return s.busyFrac }),
	}
	for k, v := range last.counts {
		m[k] = v
	}
	return m, nil
}

// pass renders Figure 8 into the empty store at dir (the cold pass), then
// runs the figure's grid warmReps times through fresh store handles and
// sessions (the warm passes), and checks every warm cell against its cold
// cell.
func (b *fig8Bench) pass(dir string) (*fig8Sample, error) {
	ctx := context.Background()
	s, st, err := openSession(b.opts, dir)
	if err != nil {
		return nil, err
	}
	sink := &cellSink{started: map[string]time.Time{}}
	coldCtx := ctx
	if b.trace {
		coldCtx = engine.WithEventSink(ctx, sink.event)
	}
	smp := &fig8Sample{counts: map[string]float64{}}
	sink.start = time.Now()
	text, err := s.Figure(coldCtx, "fig8")
	cold := time.Since(sink.start)
	smp.cold = cold.Seconds()
	var problems []string
	if err == nil {
		d := digestBytes([]byte(text))
		if b.firstText == "" {
			b.firstText = d
		}
		problems = append(problems, expect("fig8 text digest", d, b.firstText))
		if b.hasPin {
			problems = append(problems, expect("fig8 text digest against the pin", d, b.pinned))
		}
	}
	b.c.record("fig8 cold pass", err, problems...)
	if err != nil {
		return smp, nil
	}
	// The session's trace memo and results are largest at the end of
	// the cold pass.
	smp.heapMB = liveMB(s)

	var busy float64
	for _, ms := range sink.busy {
		busy += ms
	}
	smp.queueP50, smp.queueP80 = percentile(sink.queued, 50), percentile(sink.queued, 80)
	smp.busyP50, smp.busyP80 = percentile(sink.busy, 50), percentile(sink.busy, 80)
	smp.busyFrac = busy / (float64(b.opts.Parallel) * millis(cold))
	eng := s.Engine()
	ss := st.Stats()
	smp.counts["engine.cells"] = float64(sink.settled)
	smp.counts["engine.simulations"] = float64(s.Simulations())
	smp.counts["engine.memo_hits"] = float64(eng.MemoHits())
	smp.counts["engine.trace_generations"] = float64(eng.TraceGenerations())
	smp.counts["store.writes"] = float64(ss.Writes + ss.TraceWrites)
	smp.counts["store.bytes_written"] = float64(ss.BytesWritten + ss.TraceBytesWritten)

	// The cold results, served from the cold session's memo.
	plan := b.plan
	coldGrid, err := s.Execute(ctx, plan)
	if err != nil {
		return nil, fmt.Errorf("reading the cold grid back: %w", err)
	}
	coldCells := map[string]string{}
	for _, w := range plan.Workloads {
		for _, v := range plan.Variants {
			key := w + "/" + v.Key
			d, err := canonical(coldGrid.Result(w, v.Key))
			coldCells[key] = d
			if b.firstCells != nil {
				b.c.record("fig8 cold cell "+key, err, expect(key+" digest against the first pass", d, b.firstCells[key]))
			}
		}
	}
	if b.firstCells == nil {
		b.firstCells = coldCells
	}

	var storeHits float64
	for r := 0; r < warmReps; r++ {
		ws, wst, err := openSession(b.opts, dir)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		grid, err := ws.Execute(ctx, plan)
		smp.warm = append(smp.warm, time.Since(t0).Seconds())
		if err != nil {
			b.c.record("fig8 warm pass", err)
			continue
		}
		if r == 0 {
			wss := wst.Stats()
			storeHits = float64(ws.Engine().StoreHits())
			smp.counts["store.hits"] = float64(wss.Hits)
			smp.counts["store.bytes_read"] = float64(wss.BytesRead)
		}
		b.c.record("fig8 warm pass", nil,
			expect("warm simulations", ws.Simulations(), uint64(0)),
			expect("warm store hits", ws.Engine().StoreHits(), uint64(len(coldCells))))
		for _, w := range plan.Workloads {
			for _, v := range plan.Variants {
				key := w + "/" + v.Key
				d, err := canonical(grid.Result(w, v.Key))
				b.c.record("fig8 warm cell "+key, err, expect(key+" warm digest", d, coldCells[key]))
			}
		}
	}
	smp.counts["engine.store_hits"] = float64(eng.StoreHits()) + storeHits

	// One store read per cell through a fresh handle, timed alone.
	rst, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	var gets []float64
	var missing []string
	for key, storeKey := range b.keys {
		t0 := time.Now()
		_, ok := rst.GetResult(storeKey)
		gets = append(gets, millis(time.Since(t0)))
		if !ok {
			missing = append(missing, "no stored result for "+key)
		}
	}
	b.c.record("fig8 store reads", nil, missing...)
	smp.getMs = median(gets)
	return smp, nil
}
