#!/bin/sh
# bench.sh — record the repo's headline performance numbers as JSON.
#
# Usage:
#   scripts/bench.sh [OUTFILE]          # record (default BENCH_after.json)
#   scripts/bench.sh --check            # CI gate: fail if any serial
#                                       # hot-path benchmark allocates
#                                       # per op, a pipelined leg exceeds
#                                       # 0.01 allocs/record, or the
#                                       # median-of-5 ns/record regressed
#                                       # >BENCH_TOLERANCE % (default 15)
#                                       # vs the last BENCH_history.jsonl
#                                       # recording on this machine
#
# The headline benchmarks cover the full record hot path (trace
# generation -> coherent hierarchy -> SMS -> accounting), the trace
# source alone, and one figure-scale run (fig8). ns/op for the per-record
# benchmarks is ns/record; MB/s is derived from the 26-byte trace record
# encoding. Fixed seeds and -benchtime keep runs comparable; numbers are
# still machine-dependent, so BENCH_*.json records the Go version and the
# delta between baseline and after matters more than absolute values.
# Each benchmark runs -count=5 and two numbers are recorded per
# benchmark: ns_per_op is the BEST run (scheduler and noisy-neighbour
# interference only ever adds time, so the minimum is the closest
# estimate of what the code costs) and ns_median is the MEDIAN (the
# stable estimator the --check regression gate compares against its own
# median-of-5 — comparing a median to a recorded minimum would flag
# machine noise as a regression).
set -eu

cd "$(dirname "$0")/.."

HEADLINE='^(BenchmarkSimulatorThroughput|BenchmarkSampledThroughput|BenchmarkPipelinedThroughput|BenchmarkTraceGeneration|BenchmarkTraceGenerationBulk|BenchmarkTraceReplay|BenchmarkFig8Training)$'
# Benchmarks that must not allocate per record in steady state (the
# serial hot paths). The pipelined legs and the bulk generation leg are
# gated separately: their lane/prefetch/fill goroutines are set up per
# call and must amortize to <= MAX_PIPELINE_ALLOCS allocations per record.
ZERO_ALLOC='BenchmarkSimulatorThroughput|BenchmarkSampledThroughput|BenchmarkTraceGeneration|BenchmarkTraceReplay'
PIPELINED='BenchmarkPipelinedThroughput|BenchmarkTraceGenerationBulk'
MAX_PIPELINE_ALLOCS=0.01

run_bench() {
	go test -run '^$' -bench "$HEADLINE" -benchmem -benchtime=2s -count=5 .
}

if [ "${1:-}" = "--check" ]; then
	out=$(go test -run '^$' -bench "^(${ZERO_ALLOC})\$" -benchmem -benchtime=200000x -count=1 .)
	echo "$out"
	echo "$out" | awk '
		/allocs\/op/ {
			allocs = ""; bytes = ""
			for (i = 1; i <= NF; i++) {
				if ($i == "allocs/op") allocs = $(i-1)
				if ($i == "B/op") bytes = $(i-1)
			}
			if (allocs + 0 > 0) { print "FAIL: " $1 " allocates " allocs " allocs/op (want 0)"; bad = 1 }
			if (bytes + 0 > 0) { print "FAIL: " $1 " allocates " bytes " B/op (want 0)"; bad = 1 }
		}
		END { exit bad }
	'
	echo "bench allocation check passed: hot-path benchmarks run at 0 B/op, 0 allocs/op"

	# Pipelined legs (and bulk generation): lane runners, prefetch
	# buffers and fill goroutines are set up per call, so instead of the integer allocs/op column (which
	# truncates to 0) the benchmark reports a float allocs/record metric;
	# gate it at MAX_PIPELINE_ALLOCS to catch per-record allocations
	# sneaking into the fan-out or lane loops.
	pout=$(go test -run '^$' -bench "^(${PIPELINED})\$" -benchtime=500000x -count=1 .)
	echo "$pout"
	echo "$pout" | awk -v max="$MAX_PIPELINE_ALLOCS" '
		/allocs\/record/ {
			ar = ""
			for (i = 1; i <= NF; i++) if ($i == "allocs/record") ar = $(i-1)
			if (ar == "") next
			if (ar + 0 > max + 0) { print "FAIL: " $1 " at " ar " allocs/record (max " max ")"; bad = 1 }
			checked++
		}
		END {
			if (!checked) { print "FAIL: no allocs/record metrics found"; exit 1 }
			exit bad
		}
	'
	echo "pipelined allocation check passed: steady state <= ${MAX_PIPELINE_ALLOCS} allocs/record"

	# Regression gate: compare ns/op (= ns/record) per benchmark against
	# the most recent BENCH_history.jsonl recording. History lines embed
	# the recorded JSON, so the baseline comes from one sed pass over the
	# last line. The comparison gets its own time-based run — the
	# fixed-iteration alloc run above measures ~20ms per benchmark,
	# which is inside CPU frequency-scaling noise and not comparable to
	# a 2s recording. The gate takes the MEDIAN of 5 runs: best-of-3 let
	# one lucky (or unlucky) scheduler slice decide, and same-commit
	# history entries swung 283<->371 ns/record, wide enough to mask or
	# fake a real change. Only benchmarks present in both sets are
	# compared; with no history (fresh clone, CI runner) the gate is a
	# no-op, since cross-machine numbers are not comparable.
	HIST=BENCH_history.jsonl
	tol=${BENCH_TOLERANCE:-15}
	if [ ! -s "$HIST" ]; then
		echo "no $HIST baseline on this machine; skipping regression comparison"
		exit 0
	fi
	# Prefer the recorded median (same estimator as this gate); fall
	# back to ns_per_op for history lines predating the median field.
	baseline=$(tail -n 1 "$HIST" | tr '{' '\n' |
		sed -n 's/.*"name": "\([^"]*\)", "ns_per_op": [0-9.]*, "ns_median": \([0-9.]*\).*/\1 \2/p')
	[ -n "$baseline" ] || baseline=$(tail -n 1 "$HIST" | tr '{' '\n' |
		sed -n 's/.*"name": "\([^"]*\)", "ns_per_op": \([0-9.]*\).*/\1 \2/p')
	cmp=$(go test -run '^$' -bench "^(${ZERO_ALLOC})\$" -benchtime=1s -count=5 .)
	echo "$cmp" | awk -v tol="$tol" -v baseline="$baseline" '
		BEGIN {
			n = split(baseline, lines, "\n")
			for (i = 1; i <= n; i++) {
				split(lines[i], kv, " ")
				if (kv[1] != "") base[kv[1]] = kv[2]
			}
		}
		/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			ns = ""
			for (i = 1; i <= NF; i++) if ($i == "ns/op") ns = $(i-1)
			if (ns == "") next
			vals[name] = (name in vals) ? vals[name] " " ns : ns
		}
		END {
			for (name in vals) {
				if (!(name in base)) continue
				n = split(vals[name], v, " ")
				# Insertion sort (n is 5): median is the middle value.
				for (i = 2; i <= n; i++) {
					x = v[i] + 0
					for (j = i - 1; j >= 1 && v[j] + 0 > x; j--) v[j+1] = v[j]
					v[j+1] = x
				}
				med = v[int((n + 1) / 2)]
				limit = base[name] * (1 + tol / 100)
				if (med + 0 > limit) {
					printf "FAIL: %s regressed to %.1f ns/op (median of %d), baseline %.1f (tolerance %s%%)\n", name, med, n, base[name], tol
					bad = 1
				} else {
					printf "ok: %s %.1f ns/op (median of %d) vs baseline %.1f (tolerance %s%%)\n", name, med, n, base[name], tol
				}
				compared++
			}
			if (!compared) print "no overlapping benchmarks with baseline; nothing compared"
			if (bad) exit 1
		}
	'
	echo "bench regression check passed (tolerance ${tol}%)"
	exit 0
fi

OUT=${1:-BENCH_after.json}
raw=$(run_bench)
echo "$raw"

echo "$raw" | awk -v go_version="$(go env GOVERSION)" '
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		ns = ""; bytes = ""; allocs = ""
		for (i = 1; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i-1)
			if ($i == "B/op") bytes = $(i-1)
			if ($i == "allocs/op") allocs = $(i-1)
		}
		if (ns == "") next
		vals[name] = (name in vals) ? vals[name] " " ns : ns
		if (!(name in best) || ns + 0 < best[name] + 0) {
			best[name] = ns; bbytes[name] = bytes; ballocs[name] = allocs
			if (!(name in best_seen)) { order[no++] = name; best_seen[name] = 1 }
		}
	}
	END {
		print "{"
		printf "  \"go\": \"%s\",\n", go_version
		print "  \"benchmarks\": ["
		for (oi = 0; oi < no; oi++) {
			name = order[oi]
			n = split(vals[name], v, " ")
			for (i = 2; i <= n; i++) {
				x = v[i] + 0
				for (j = i - 1; j >= 1 && v[j] + 0 > x; j--) v[j+1] = v[j]
				v[j+1] = x
			}
			med = v[int((n + 1) / 2)]
			if (oi) printf ",\n"
			printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ns_median\": %s", name, best[name], med
			if (bbytes[name] != "") printf ", \"bytes_per_op\": %s", bbytes[name]
			if (ballocs[name] != "") printf ", \"allocs_per_op\": %s", ballocs[name]
			# Per-record benchmarks: ns/op is ns/record; 26 B/record on the wire.
			if (name ~ /SimulatorThroughput|SampledThroughput|PipelinedThroughput|TraceGeneration|TraceReplay/) {
				printf ", \"ns_per_record\": %s, \"mb_per_s\": %.1f", best[name], 26 * 1000 / best[name]
			}
			printf "}"
		}
		print "\n  ]"
		print "}"
	}
' >"$OUT"
echo "wrote $OUT"

# Append this run to the benchmark trajectory: one JSON line per
# recording (UTC timestamp, commit, the full metrics object), so perf
# history survives the before/after pair being overwritten. The env
# object records what the numbers were measured under — GOMAXPROCS,
# the CPU model, and the 1/5/15-minute load averages at recording time
# — so cross-entry comparisons can tell a code change from a noisy or
# differently-sized machine.
HIST=BENCH_history.jsonl
ts=$(date -u +%Y-%m-%dT%H:%M:%SZ)
sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
gomaxprocs=${GOMAXPROCS:-$(nproc 2>/dev/null || echo 0)}
cpu_model=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
[ -n "$cpu_model" ] || cpu_model=unknown
loadavg=$(cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || echo unknown)
printf '{"time":"%s","commit":"%s","out":"%s","env":{"gomaxprocs":%s,"cpu_model":"%s","loadavg":"%s"},"record":%s}\n' \
	"$ts" "$sha" "$OUT" "$gomaxprocs" "$cpu_model" "$loadavg" "$(tr -d '\n' <"$OUT")" >>"$HIST"
echo "appended to $HIST"
