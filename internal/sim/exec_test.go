package sim_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// execTrace builds the shared input stream for the pipelined/parallel
// differentials: a generator-shaped workload trace.
func execTrace(t *testing.T, length uint64) []trace.Record {
	t.Helper()
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(w.Make(workload.Config{CPUs: 4, Seed: 11, Length: length}), 0)
}

// TestPipelinedRunMatchesSerial is the tentpole's bit-identity gate: for
// every registered prefetcher, Result JSON must be byte-identical across
// the plain serial path, serial + pipelined decode, and the lane-
// parallel path (which conflict-replays serially for prefetcher configs
// and genuinely shards for the baseline). Run with -race this also
// exercises the hand-off rings under the race detector.
func TestPipelinedRunMatchesSerial(t *testing.T) {
	recs := execTrace(t, 50_000)
	for _, pf := range []string{"none", "sms", "ls", "ghb", "stride", "nextline"} {
		t.Run(pf, func(t *testing.T) {
			cfg := sim.Config{
				PrefetcherName:   pf,
				WarmupAccesses:   20_001, // deliberately not batch-aligned
				TrackGenerations: true,
			}
			serial := sim.MustNewRunner(cfg)
			want, err := serial.RunContext(context.Background(), trace.NewSliceSource(recs))
			if err != nil {
				t.Fatal(err)
			}
			wantJSON := resultJSON(t, want)

			for _, x := range []sim.Exec{
				{DecodeAhead: 2},
				{DecodeAhead: 4},
				{Lanes: 2},
				{Lanes: 4},
				{Lanes: 8, DecodeAhead: 3},
			} {
				r := sim.MustNewRunner(cfg)
				r.SetExec(x)
				got, err := r.RunContext(context.Background(), trace.NewSliceSource(recs))
				if err != nil {
					t.Fatalf("exec %+v: %v", x, err)
				}
				if gotJSON := resultJSON(t, got); gotJSON != wantJSON {
					t.Fatalf("exec %+v Result JSON differs from serial:\n%s\nvs\n%s", x, gotJSON, wantJSON)
				}
				ps := r.PipelineStats()
				if x.Lanes > 1 && pf != "none" {
					if ps.ConflictReplays != 1 || ps.Lanes != 1 {
						t.Fatalf("exec %+v with prefetcher %s: want serial conflict replay, got %+v", x, pf, ps)
					}
				}
				if x.Lanes > 1 && pf == "none" {
					if ps.Lanes < 2 {
						t.Fatalf("exec %+v baseline: expected sharded lanes, got %+v", x, ps)
					}
					var n uint64
					for _, ln := range ps.LaneRecords {
						n += ln
					}
					if n != uint64(len(recs)) {
						t.Fatalf("lanes simulated %d records, trace has %d", n, len(recs))
					}
					if occ := ps.Occupancy(); occ <= 0 || occ > 100 {
						t.Fatalf("implausible lane occupancy %v", occ)
					}
				}
			}
		})
	}
}

// TestParallelMatchesSerialFromGeneratorSource covers the non-ViewSource
// fan-out path (batched generator source instead of an in-memory slice).
func TestParallelMatchesSerialFromGeneratorSource(t *testing.T) {
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{CPUs: 4, Seed: 7, Length: 40_000}
	cfg := sim.Config{WarmupAccesses: 13_333, TrackGenerations: true}

	serial := sim.MustNewRunner(cfg)
	want, err := serial.RunContext(context.Background(), w.Make(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	par := sim.MustNewRunner(cfg)
	par.SetExec(sim.Exec{Lanes: 4, DecodeAhead: 2})
	got, err := par.RunContext(context.Background(), w.Make(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultJSON(t, want), resultJSON(t, got); a != b {
		t.Fatalf("parallel Result JSON differs from serial:\n%s\nvs\n%s", b, a)
	}
}

// TestLaneClampRespectsGeometry pins the safe-lane-count derivation: with
// the default geometry (64 B blocks, 2 KiB regions, 256-set L1) the lane
// key may use at most min(setBits) - log2(blocksPerRegion) = 3 bits, so
// an extravagant request must clamp to 8 lanes, and a non-power-of-two
// request rounds down to a mask-friendly count.
func TestLaneClampRespectsGeometry(t *testing.T) {
	recs := execTrace(t, 4_000)
	for _, tc := range []struct{ want, effective int }{
		{64, 8},
		{8, 8},
		{3, 2},
		{2, 2},
	} {
		r := sim.MustNewRunner(sim.Config{WarmupAccesses: 1_000})
		r.SetExec(sim.Exec{Lanes: tc.want})
		if _, err := r.RunContext(context.Background(), trace.NewSliceSource(recs)); err != nil {
			t.Fatal(err)
		}
		if got := r.PipelineStats().Lanes; got != tc.effective {
			t.Errorf("Lanes=%d: effective %d, want %d", tc.want, got, tc.effective)
		}
	}
}

// TestExecDoesNotChangeCanonicalIdentity guards the store-key contract:
// execution tuning lives outside Config, so a Config's canonical form —
// the identity the result store hashes — cannot observe it.
func TestExecDoesNotChangeCanonicalIdentity(t *testing.T) {
	cfg := sim.Config{PrefetcherName: "sms", WarmupAccesses: 100}
	r := sim.MustNewRunner(cfg)
	r.SetExec(sim.Exec{Lanes: 8, DecodeAhead: 16})
	if r.Config().Canonical() != cfg.Canonical() {
		t.Fatal("SetExec perturbed the runner's canonical Config")
	}
}

// TestParallelCancellation covers mid-run cancellation of the lane path:
// the run must return the context error, never a partial Result, and all
// lane goroutines and the decode goroutine must wind down (the -race
// build catches leaks touching freed batches).
func TestParallelCancellation(t *testing.T) {
	recs := execTrace(t, 120_000)
	r := sim.MustNewRunner(sim.Config{WarmupAccesses: 10_000})
	r.SetExec(sim.Exec{Lanes: 4, DecodeAhead: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	r.OnProgress(4096, func(records uint64) {
		if records > 20_000 {
			once.Do(cancel)
		}
	})
	res, err := r.RunContext(ctx, trace.NewSliceSource(recs))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled parallel run returned a partial Result")
	}
}

// erringSource yields n records and then fails like a corrupt trace
// artifact: exhaustion plus a latched Err.
type erringSource struct {
	n    int
	fail error
}

func (s *erringSource) Next() (trace.Record, bool) {
	if s.n == 0 {
		return trace.Record{}, false
	}
	s.n--
	return trace.Record{Addr: mem.Addr(64 * s.n), CPU: uint8(s.n % 2)}, true
}

func (s *erringSource) Err() error { return s.fail }

// TestParallelSurfacesLatchedDecodeError pins the PR 5 contract through
// the whole pipeline: a source that fails mid-stream must fail the run —
// through the decode-ahead stage, through the lane fan-out, and through
// both composed — so a corrupt trace never yields a persistable Result.
func TestParallelSurfacesLatchedDecodeError(t *testing.T) {
	for _, x := range []sim.Exec{
		{DecodeAhead: 2},
		{Lanes: 4},
		{Lanes: 4, DecodeAhead: 2},
	} {
		src := &erringSource{n: 10_000, fail: trace.ErrBadFormat}
		r := sim.MustNewRunner(sim.Config{WarmupAccesses: 100})
		r.SetExec(x)
		res, err := r.RunContext(context.Background(), src)
		if err == nil || !strings.Contains(err.Error(), "trace source failed mid-stream") {
			t.Fatalf("exec %+v: err = %v, want latched decode error", x, err)
		}
		if res != nil {
			t.Fatalf("exec %+v: erring source produced a Result", x)
		}
	}
}

// TestAutoDecodeAheadMatchesInline: with no Exec, a run over a generator
// decodes ahead when a second core is available and inline when not, and
// both Results are byte-identical to a replay of the same trace from
// memory (which never pipelines). GOMAXPROCS is set here, so a one-core
// machine still runs the pipelined path.
func TestAutoDecodeAheadMatchesInline(t *testing.T) {
	w, err := workload.ByName("oltp-oracle")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.Config{CPUs: 4, Seed: 3, Length: 30_000}
	recs := trace.Collect(w.Make(wcfg), 0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pf := range []string{"none", "sms"} {
		t.Run(pf, func(t *testing.T) {
			cfg := sim.Config{PrefetcherName: pf, WarmupAccesses: 10_001, TrackGenerations: true}
			inMem := sim.MustNewRunner(cfg)
			want, err := inMem.RunContext(context.Background(), trace.NewSliceSource(recs))
			if err != nil {
				t.Fatal(err)
			}
			if ps := inMem.PipelineStats(); ps.Lanes != 0 {
				t.Fatalf("in-memory run pipelined: %+v", ps)
			}
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				r := sim.MustNewRunner(cfg)
				got, err := r.RunContext(context.Background(), w.Make(wcfg))
				if err != nil {
					t.Fatal(err)
				}
				if a, b := resultJSON(t, want), resultJSON(t, got); a != b {
					t.Fatalf("GOMAXPROCS=%d: generator-fed Result differs from in-memory replay:\n%s\nvs\n%s", procs, b, a)
				}
				if pipelined := r.PipelineStats().Lanes == 1; pipelined != (procs > 1) {
					t.Fatalf("GOMAXPROCS=%d: pipelined = %v", procs, pipelined)
				}
			}
		})
	}
}

// TestAutoDecodeAheadCancellation: cancelling an auto-pipelined run
// returns the context error and stops the decoder before RunContext
// returns, leaving no goroutine behind.
func TestAutoDecodeAheadCancellation(t *testing.T) {
	w, err := workload.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()
	r := sim.MustNewRunner(sim.Config{WarmupAccesses: 10_000})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.OnProgress(4096, func(records uint64) {
		if records > 20_000 {
			cancel()
		}
	})
	res, err := r.RunContext(ctx, w.Make(workload.Config{CPUs: 4, Seed: 1, Length: 1 << 40}))
	if err != context.Canceled || res != nil {
		t.Fatalf("RunContext = %v, %v; want nil, context.Canceled", res, err)
	}
	if r.PipelineStats().Lanes != 1 {
		t.Fatal("run was not pipelined")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the run, %d after: the decoder outlived it", before, after)
	}
}

// TestAutoDecodeAheadSurfacesLatchedError: the latched error of an
// on-demand source fails an auto-pipelined run as it fails an inline one.
func TestAutoDecodeAheadSurfacesLatchedError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		r := sim.MustNewRunner(sim.Config{WarmupAccesses: 100})
		res, err := r.RunContext(context.Background(), &erringSource{n: 10_000, fail: trace.ErrBadFormat})
		if err == nil || !strings.Contains(err.Error(), "trace source failed mid-stream") || res != nil {
			t.Fatalf("GOMAXPROCS=%d: RunContext = %v, %v; want the latched decode error", procs, res, err)
		}
	}
}
