package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

const (
	mb = 1 << 20

	// Runtime metrics: the live heap marked by the last GC cycle, and
	// the cumulative bytes allocated.
	metricLiveHeap = "/gc/heap/live:bytes"
	metricAllocs   = "/gc/heap/allocs:bytes"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is the SHA-256 of v's JSON encoding, the canonical form the
// repository's golden tests hash results in.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocMB returns the MB allocated while fn runs.
func allocMB(fn func()) float64 {
	before := readMetric(metricAllocs)
	fn()
	return float64(readMetric(metricAllocs)-before) / mb
}

// liveMB forces a garbage collection and returns the heap that survives
// it, in MB, with keep still reachable. Called after a timed pass with the
// pass's state as keep, it measures that state at its largest, without
// the collector's timing that a sampled peak would depend on.
func liveMB(keep any) float64 {
	runtime.GC()
	v := readMetric(metricLiveHeap)
	runtime.KeepAlive(keep)
	return float64(v) / mb
}
