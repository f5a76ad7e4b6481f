package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyRecords keeps every workload's run in this test to about a second.
const tinyRecords = 20_000

// tinyDigests pin each workload's output at tinyRecords on the default
// seed, the way pinnedDigests pin the full-size outputs.
var tinyDigests = map[string]string{
	digestKey("sms-oltp-gen", defaultSeed, tinyRecords):   "c48bbb6e2cfe42bd3da79416feaad251466d955a6cd7d8009c77897dac87261f",
	digestKey("base-gens-mmap", defaultSeed, tinyRecords): "258c59ce4cfc584a502d1d9f93ab9d81133d15e124db9f329b4690936ceaf2d1",
	digestKey(fig8Name, defaultSeed, tinyRecords):         "214539e1f6c8bb4154b26b4f00d50ba2fea4e3f7abb030276582f8096085452e",
}

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, trace bool, digests map[string]string) *report {
	t.Helper()
	rep, err := run(options{
		workload: workload,
		seed:     defaultSeed,
		trace:    trace,
		workdir:  t.TempDir(),
		records:  tinyRecords,
		digests:  digests,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestEveryWorkloadEmitsEveryMetric runs every workload of BENCHMARK.json
// at a tiny size in both modes and checks that the report is correct and
// names exactly the metrics BENCHMARK.json lists, with their units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w.Name, trace, tinyDigests)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, sm := range want {
				got, ok := rep.Metrics[sm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, sm.Name)
				case got.Unit != sm.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.Name, trace, sm.Name, got.Unit, sm.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, sm.Name, got.Value)
				}
			}
		}
	}
}

// TestLayersIdleWhereTheyDoNoWork checks the ledger's zeros: the
// prefetcher and stream layers do nothing on base-gens-mmap and work on
// sms-oltp-gen, and generation tracking is the other way round.
func TestLayersIdleWhereTheyDoNoWork(t *testing.T) {
	sms := tinyRun(t, "sms-oltp-gen", true, tinyDigests).Metrics
	base := tinyRun(t, "base-gens-mmap", true, tinyDigests).Metrics
	for name := range sms {
		if !strings.HasPrefix(name, "core.") && !strings.HasPrefix(name, "coherence.stream_") {
			continue
		}
		if v := base[name].Value; v != 0 {
			t.Errorf("base-gens-mmap: %s = %v, want 0", name, v)
		}
		if v := sms[name].Value; v == 0 && !strings.HasSuffix(name, "_ns") {
			t.Errorf("sms-oltp-gen: %s = 0, want work", name)
		}
	}
	if v := sms["sim.gens_ns_per_record"].Value; v != 0 {
		t.Errorf("sms-oltp-gen: sim.gens_ns_per_record = %v, want 0", v)
	}
	for _, name := range []string{"coherence.accesses", "sim.offchip_blocks"} {
		if sms[name].Value == 0 || base[name].Value == 0 {
			t.Errorf("%s reads 0 on a single-run workload", name)
		}
	}
}

// TestPerturbedDigestFails checks that a pinned digest is compared: one
// wrong character makes the run incorrect.
func TestPerturbedDigestFails(t *testing.T) {
	for key := range tinyDigests {
		workload, _, _ := strings.Cut(key, " ")
		digests := map[string]string{}
		for k, v := range tinyDigests {
			digests[k] = v
		}
		d := []byte(digests[key])
		d[0] ^= 1 // '0' <-> '1', 'a' <-> '`'
		digests[key] = string(d)
		rep := tinyRun(t, workload, false, digests)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: perturbed digest passed: correct=%v failed=%d", workload, rep.Correct, rep.Failed)
		}
	}
}
