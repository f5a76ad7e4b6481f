package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTraceMemoGeneratesOncePerWorkload: a grid of N variants over one
// workload runs the generator exactly once; replayed runs are
// bit-identical to generated ones (covered by the figure-level golden
// tests, asserted here at the grid level via result equality).
func TestTraceMemoGeneratesOncePerWorkload(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	plan := Plan{
		Name:      "memo",
		Workloads: []string{"oltp-db2", "dss-q1"},
		Variants: []Variant{
			{Key: "none", Config: sim.Config{PrefetcherName: "none"}},
			{Key: "sms", Config: sim.Config{PrefetcherName: "sms"}},
			{Key: "ghb", Config: sim.Config{PrefetcherName: "ghb"}},
		},
	}

	memo := New(Config{Workload: wcfg})
	grid, err := memo.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := memo.Simulations(), uint64(6); got != want {
		t.Fatalf("simulations = %d, want %d", got, want)
	}
	if got, want := memo.TraceGenerations(), uint64(2); got != want {
		t.Fatalf("trace generations = %d, want %d (one per workload)", got, want)
	}

	// The memo must not change any result: compare against an engine
	// with the memo disabled.
	plain := New(Config{Workload: wcfg, TraceCacheBytes: -1})
	grid2, err := plain.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plain.TraceGenerations(), uint64(6); got != want {
		t.Fatalf("memo-disabled trace generations = %d, want %d", got, want)
	}
	for _, wl := range plan.Workloads {
		for _, v := range plan.Variants {
			a := grid.Result(wl, v.Key)
			b := grid2.Result(wl, v.Key)
			if a == nil || b == nil {
				t.Fatalf("missing cell %s/%s (memo %v, plain %v)", wl, v.Key, a != nil, b != nil)
			}
			if a.L1ReadMisses != b.L1ReadMisses || a.Accesses != b.Accesses ||
				a.OffChipReadMisses != b.OffChipReadMisses || a.StreamRequests != b.StreamRequests {
				t.Fatalf("memoized trace changed results for %s/%s:\n memo  %+v\n plain %+v", wl, v.Key, a, b)
			}
		}
	}
}

// TestCustomCellsShareTheTraceMemo: a custom cell receives its
// workload's trace from the same memo the variant cells replay — the
// generator's exact record stream, with no extra generation.
func TestCustomCellsShareTheTraceMemo(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Collect(w.Make(wcfg), 0)
	var got []trace.Record
	plan := Plan{
		Name:      "custom-memo",
		Workloads: []string{"oltp-db2"},
		Variants:  []Variant{{Key: "none", Config: sim.Config{PrefetcherName: "none"}}},
		Customs: []Custom{{Workload: "oltp-db2", Key: "collect",
			Run: func(ctx context.Context, src trace.Source) (any, error) {
				got = trace.Collect(src, 0)
				return len(got), nil
			}}},
	}
	e := New(Config{Workload: wcfg})
	if _, err := e.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if got, want := e.TraceGenerations(), uint64(1); got != want {
		t.Fatalf("trace generations = %d, want %d (custom cell shares the memo)", got, want)
	}
	if len(got) != len(want) {
		t.Fatalf("custom cell saw %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("custom cell record %d = %v, want %v", i, got[i], want[i])
		}
	}

	// With the memo off, the custom cell generates its own trace and the
	// engine counts it like a variant cell's.
	plain := New(Config{Workload: wcfg, TraceCacheBytes: -1})
	if _, err := plain.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if got, want := plain.TraceGenerations(), uint64(2); got != want {
		t.Fatalf("memo-disabled trace generations = %d, want %d", got, want)
	}

	bad := Plan{Name: "custom-unknown", Customs: []Custom{{Workload: "no-such-workload", Key: "c",
		Run: func(ctx context.Context, src trace.Source) (any, error) { return nil, nil }}}}
	if _, err := New(Config{Workload: wcfg}).Execute(context.Background(), bad); err == nil {
		t.Fatal("custom cell over an unknown workload succeeded")
	}
}

// TestTraceMemoBudget: a trace over budget streams from the generator
// every time and is never cached.
func TestTraceMemoBudget(t *testing.T) {
	wcfg := workload.Config{CPUs: 2, Seed: 5, Length: 20_000}
	size := int64(wcfg.Canonical().Length) * recordBytes
	e := New(Config{Workload: wcfg, TraceCacheBytes: size - 1})
	plan := Plan{
		Name:      "over-budget",
		Workloads: []string{"oltp-db2"},
		Variants: []Variant{
			{Key: "none", Config: sim.Config{PrefetcherName: "none"}},
			{Key: "sms", Config: sim.Config{PrefetcherName: "sms"}},
		},
	}
	if _, err := e.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if got, want := e.TraceGenerations(), uint64(2); got != want {
		t.Fatalf("over-budget workload generated %d times, want %d (never cached)", got, want)
	}
}

// TestTraceMemoSingleflight: concurrent requests for the same workload
// generate once and all receive the full trace.
func TestTraceMemoSingleflight(t *testing.T) {
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{CPUs: 2, Seed: 5, Length: 10_000}
	e := New(Config{Workload: cfg})
	var wg sync.WaitGroup
	generations := make(chan bool, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, generated := e.traceSource(w)
			generations <- generated
			if n := len(trace.Collect(src, 0)); n != 10_000 {
				t.Errorf("short trace: %d records", n)
			}
		}()
	}
	wg.Wait()
	close(generations)
	n := 0
	for g := range generations {
		if g {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d goroutines generated, want exactly 1", n)
	}
}
