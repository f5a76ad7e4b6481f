// Command perfbench is the repository's benchmark. It runs one workload of
// the Spatial Memory Streaming reproduction for a fixed time, checks that
// the outputs are correct, and prints every metric by name with its unit.
//
// Run it from the repository root through its wrapper, which builds it
// first:
//
//	bash perfbench/run.sh --workload sms-oltp-gen --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured on untraced runs; with --trace 1 they are
// the per-layer ledger. The line before it records the environment.
// README.md has the metric, layer and workload table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the seed whose outputs are pinned in pinnedDigests.
const defaultSeed = 1

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch files (trace file, result stores) go below it
	// records overrides the records per single run, or per fig8 trace;
	// 0 keeps the workload's default. Tests use it to run tiny sizes.
	records uint64
	// digests maps digestKey values to pinned SHA-256 digests.
	digests map[string]string
}

// pinnedDigests are the SHA-256 digests of each workload's output on the
// default seed at the default sizes: the canonical Result JSON of the
// single runs and the rendered Figure 8 text.
var pinnedDigests = map[string]string{
	digestKey("sms-oltp-gen", defaultSeed, singleRecords):   "09f0b30c88fc854a2068b031bcd1704bd564cb42635ab8b7d9c95bdf8f26ccb7",
	digestKey("base-gens-mmap", defaultSeed, singleRecords): "ecffa494d29946f1797728d9381af7f34e5cc15bfba049cd3fb0b7c297785484",
	digestKey("fig8-store", defaultSeed, fig8Records):       "90a103c63a16f3428b8cb3c20fb6b64a73e6b5c01c4dc5fbe0fde12c9a821557",
}

func digestKey(workload string, seed int64, records uint64) string {
	return fmt.Sprintf("%s seed=%d records=%d", workload, seed, records)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name the reported metrics and their units, in the
// order BENCHMARK.json lists them. Every workload reports every metric;
// a layer that does no work on a workload reads 0.
var endToEnd = []metricDef{
	{"records_per_s", "1/s"},
	{"cold_s", "s"},
	{"warm_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"alloc_mb", "MB"},
}

var perLayer = []metricDef{
	{"workload.ns_per_record", "ns/record"},
	{"trace.ns_per_record", "ns/record"},
	{"coherence.access_ns", "ns/record"},
	{"coherence.accesses", "count"},
	{"coherence.l1_miss_ratio", "ratio"},
	{"coherence.l2_miss_ratio", "ratio"},
	{"coherence.evictions_per_kaccess", "1/kaccess"},
	{"coherence.invalidations_per_kaccess", "1/kaccess"},
	{"coherence.stream_ns", "ns/record"},
	{"coherence.stream_calls", "count"},
	{"coherence.stream_fill_ratio", "ratio"},
	{"core.train_ns", "ns/record"},
	{"core.drain_ns", "ns/record"},
	{"core.trains", "count"},
	{"core.stream_requests", "count"},
	{"core.pht_lookups", "count"},
	{"core.pht_hits", "count"},
	{"core.pht_hit_ratio", "ratio"},
	{"core.useful_ratio", "ratio"},
	{"sim.ns_per_record", "ns/record"},
	{"sim.gens_ns_per_record", "ns/record"},
	{"sim.unattributed_ns_per_record", "ns/record"},
	{"sim.trace_overhead_frac", "ratio"},
	{"sim.stream_requests", "count"},
	{"sim.covered_misses", "count"},
	{"sim.overpredictions", "count"},
	{"sim.offchip_blocks", "count"},
	{"engine.cells", "count"},
	{"engine.simulations", "count"},
	{"engine.memo_hits", "count"},
	{"engine.store_hits", "count"},
	{"engine.trace_generations", "count"},
	{"engine.cell_busy_ms_p50", "ms"},
	{"engine.cell_busy_ms_p80", "ms"},
	{"engine.queue_wait_ms_p50", "ms"},
	{"engine.queue_wait_ms_p80", "ms"},
	{"engine.worker_busy_frac", "ratio"},
	{"store.writes", "count"},
	{"store.bytes_written", "bytes"},
	{"store.hits", "count"},
	{"store.bytes_read", "bytes"},
	{"store.get_ms", "ms"},
	{"failed_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// checks counts the runs and cells whose outputs were checked, and those
// that errored or failed a check.
type checks struct{ attempted, failed int }

// record settles one run or cell: it fails when err is non-nil or any
// of the problems is non-empty. Each failure is described on stderr.
func (c *checks) record(what string, err error, problems ...string) {
	c.attempted++
	if err != nil {
		problems = append(problems, err.Error())
	}
	var bad []string
	for _, p := range problems {
		if p != "" {
			bad = append(bad, p)
		}
	}
	if len(bad) > 0 {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", what, strings.Join(bad, "; "))
	}
}

// expect returns a problem description when got != want.
func expect(what string, got, want any) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("%s = %v, want %v", what, got, want)
}

// run executes one workload and assembles the report. An error means the
// benchmark could not run at all; failed outputs are counted in the report.
func run(o options) (*report, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	c := &checks{}
	var (
		m   map[string]float64
		err error
	)
	if o.workload == fig8Name {
		m, err = runFig8(o, c)
	} else if spec, ok := singles[o.workload]; ok {
		m, err = runSingle(o, spec, c)
	} else {
		names := []string{fig8Name}
		for name := range singles {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if err != nil {
		return nil, err
	}
	if c.attempted == 0 {
		return nil, errors.New("no run was checked")
	}
	m["failed_frac"] = float64(c.failed) / float64(c.attempted)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep := &report{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return rep, nil
}

// environment describes the host a run measured.
func environment(o options) map[string]any {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  "unknown",
		"loadavg":    "unknown",
	}
	// Both files are Linux-only; elsewhere the fields stay "unknown".
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env["loadavg"] = strings.TrimSpace(string(b))
	}
	return env
}

func main() {
	o := options{digests: pinnedDigests}
	var traceLevel int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sms-oltp-gen, base-gens-mmap or fig8-store")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload generation seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&traceLevel, "trace", 0, "0: end-to-end metrics from untraced runs; 1: the per-layer ledger")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch files")
	flag.Parse()
	if traceLevel != 0 && traceLevel != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceLevel == 1

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"env": environment(o)}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
