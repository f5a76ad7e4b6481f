package main

import (
	"fmt"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ledger is what one traced run measured. Layer times are sampled: only
// the calls of about one record in eight are bracketed, so the clock
// reads cost little; each bracket's own cost is subtracted, and the sum
// is divided by the sampled records.
type ledger struct {
	records, sampled uint64

	decode time.Duration // every batch, not sampled
	wall   time.Duration
	// Sampled layer times, and how many brackets each sums.
	access, train, drain, stream     time.Duration
	nAccess, nTrain, nDrain, nStream uint64

	// Layer work counts over the whole run.
	l1Misses, l2Misses, evictions, invalidations uint64
	streamCalls, streamFills                     uint64
	trains, streamRequests                       uint64
	pht                                          core.PHTStats

	// The Result counters the runner keeps after warm-up, recomputed
	// from the layer calls.
	accesses, l1ReadMisses, covered, resultStreams uint64
}

// sampleRecord picks about one record in eight, pseudo-randomly so the
// choice is not locked to the generators' CPU interleaving.
func sampleRecord(n uint64) bool { return (n*0x9E3779B97F4A7C15)>>61 == 0 }

// bracketCost measures the cost of one empty time.Now bracket.
func bracketCost() time.Duration {
	const n = 100_000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return sum / n
}

// tracedRun drives the workload's own source through the public layer
// calls in Runner.Step's order: decode, coherence.System.AccessInto,
// then for SMS core.SimPrefetcher.Train, Invalidated, Drain and
// coherence.System.StreamInto with the StreamEvicted fan-out.
func (b *single) tracedRun() (*ledger, error) {
	cfg := b.config(b.spec.gens).Canonical()
	sys, err := coherence.New(cfg.Coherence)
	if err != nil {
		return nil, err
	}
	var pfs []*core.SimPrefetcher
	switch cfg.PrefetcherName {
	case "none":
	case "sms":
		for i := 0; i < cfg.Coherence.CPUs; i++ {
			p, err := core.NewSimPrefetcher(cfg.SMS)
			if err != nil {
				return nil, err
			}
			pfs = append(pfs, p)
		}
	default:
		return nil, fmt.Errorf("traced run: prefetcher %q is not traced", cfg.PrefetcherName)
	}

	src, closeSrc, err := b.source()
	if err != nil {
		return nil, err
	}
	defer closeSrc()
	views, isView := src.(trace.ViewSource)
	batches := trace.Batched(src)
	buf := make([]trace.Record, batchRecords)

	l := &ledger{}
	var (
		acc  coherence.AccessResult
		sres coherence.StreamResult
		t    time.Time
	)
	start := time.Now()
	for {
		t0 := time.Now()
		var batch []trace.Record
		if isView {
			batch = views.NextView(batchRecords)
		} else {
			batch = buf[:batches.NextBatch(buf)]
		}
		l.decode += time.Since(t0)
		if len(batch) == 0 {
			break
		}
		for i := range batch {
			rec := &batch[i]
			l.records++
			warm := l.records > cfg.WarmupAccesses
			sample := sampleRecord(l.records)
			cpu := int(rec.CPU)
			write := rec.IsWrite()
			if sample {
				l.sampled++
				t = time.Now()
			}
			sys.AccessInto(&acc, cpu, rec.Addr, write)
			if sample {
				l.access += time.Since(t)
				l.nAccess++
			}

			if !acc.L1Hit {
				l.l1Misses++
				if !acc.L2Hit {
					l.l2Misses++
				}
			}
			l.evictions += uint64(len(acc.L1Evictions) + len(acc.L2Evictions))
			l.invalidations += uint64(len(acc.Invalidations))
			if warm {
				l.accesses++
				if !write && !acc.L1Hit {
					l.l1ReadMisses++
				}
				if !write && acc.L1PrefetchHit {
					l.covered++
				}
			}
			if pfs == nil {
				continue
			}

			p := pfs[cpu]
			if sample {
				t = time.Now()
			}
			// SMS issues nothing from Train; its streams come from Drain.
			issued := len(p.Train(*rec, &acc))
			for _, inv := range acc.Invalidations {
				if inv.L1 {
					pfs[inv.CPU].Invalidated(inv.Addr)
				}
			}
			if sample {
				l.train += time.Since(t)
				l.nTrain++
			}
			if issued > 0 {
				return nil, fmt.Errorf("traced run: Train issued %d prefetches; SMS streams only through Drain", issued)
			}
			l.trains++

			if sample {
				t = time.Now()
			}
			reqs := p.Drain(cfg.StreamRate)
			if sample {
				l.drain += time.Since(t)
				l.nDrain++
			}
			l.streamRequests += uint64(len(reqs))
			for _, a := range reqs {
				if warm {
					l.resultStreams++
				}
				if sample {
					t = time.Now()
				}
				sys.StreamInto(&sres, cpu, a)
				if sample {
					l.stream += time.Since(t)
					l.nStream++
					t = time.Now()
				}
				for _, ev := range sres.L1Evictions {
					p.StreamEvicted(ev.Addr)
				}
				if sample {
					l.train += time.Since(t)
					l.nTrain++
				}
				l.streamCalls++
				if !sres.AlreadyPresent {
					l.streamFills++
				}
			}
		}
	}
	l.wall = time.Since(start)
	if e, ok := src.(interface{ Err() error }); ok && e.Err() != nil {
		return nil, e.Err()
	}
	for _, p := range pfs {
		st := p.Engine().Stats().PHT
		l.pht.Lookups += st.Lookups
		l.pht.Hits += st.Hits
	}
	return l, nil
}

// perRecord converts a sampled layer time to ns per record, net of the
// bracket cost.
func (l *ledger) perRecord(d time.Duration, brackets uint64, cost time.Duration) float64 {
	if l.sampled == 0 {
		return 0
	}
	net := float64(d) - float64(brackets)*float64(cost)
	return net / float64(l.sampled)
}

// compare lists where the traced run's counts differ from the untraced
// Result of the same records.
func (l *ledger) compare(res *sim.Result) []string {
	var phtLookups, phtHits uint64
	for _, st := range res.SMSStats {
		phtLookups += st.PHT.Lookups
		phtHits += st.PHT.Hits
	}
	return []string{
		expect("traced demand accesses", l.accesses, res.Accesses),
		expect("traced L1 read misses", l.l1ReadMisses, res.L1ReadMisses),
		expect("traced stream requests", l.resultStreams, res.StreamRequests),
		expect("traced covered misses", l.covered, res.L1CoveredMisses),
		expect("traced PHT lookups", l.pht.Lookups, phtLookups),
		expect("traced PHT hits", l.pht.Hits, phtHits),
	}
}

// traced alternates an untraced run, the traced run, a memo replay walk
// and, when the workload tracks generations, an untraced run without
// them, until the time is up. It fills the per-layer ledger.
func (b *single) traced(o options, rc *resultChecker, c *checks, m map[string]float64) error {
	cost := bracketCost()
	var (
		untraced, gensOff, tracedWall, memoWalk []float64
		decode, access, train, drain, stream    []float64
		last                                    *ledger
		lastRes                                 *sim.Result
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < o.seconds; i++ {
		res, _, d, err := b.pass(b.spec.gens, b.source)
		c.record("untraced run", err, rc.check(b.spec.gens, res, err))
		if err != nil {
			continue
		}
		untraced = append(untraced, float64(d)/float64(b.records))
		lastRes = res

		l, err := b.tracedRun()
		var problems []string
		if err == nil {
			problems = l.compare(res)
			problems = append(problems, expect("traced records", l.records, uint64(len(b.memo))))
		}
		c.record("traced run", err, problems...)
		if err == nil {
			last = l
			n := float64(l.records)
			tracedWall = append(tracedWall, float64(l.wall)/n)
			decode = append(decode, float64(l.decode)/n)
			access = append(access, l.perRecord(l.access, l.nAccess, cost))
			train = append(train, l.perRecord(l.train, l.nTrain, cost))
			drain = append(drain, l.perRecord(l.drain, l.nDrain, cost))
			stream = append(stream, l.perRecord(l.stream, l.nStream, cost))
		}

		if b.spec.gens {
			res, _, d, err := b.pass(false, b.source)
			c.record("untraced run without generation tracking", err, rc.check(false, res, err))
			if err == nil {
				gensOff = append(gensOff, float64(d)/float64(b.records))
			}
		}
		if !b.spec.mmap {
			memoWalk = append(memoWalk, b.walkMemo())
		}
		if err := b.resetup(i); err != nil {
			return err
		}
	}
	if last == nil || lastRes == nil {
		return nil
	}

	sources := median(decode)
	if b.spec.mmap {
		m["trace.ns_per_record"] = sources
	} else {
		m["workload.ns_per_record"] = sources
		m["trace.ns_per_record"] = median(memoWalk)
	}
	m["coherence.access_ns"] = median(access)
	m["coherence.stream_ns"] = median(stream)
	m["core.train_ns"] = median(train)
	m["core.drain_ns"] = median(drain)
	base := median(untraced)
	m["sim.ns_per_record"] = base
	// The traced run cannot call the runner's unexported generation
	// trackers, so its overhead is judged against the untraced run
	// without them, and generation tracking enters the ledger as the
	// difference between the two untraced runs.
	same := base
	if b.spec.gens {
		same = median(gensOff)
		m["sim.gens_ns_per_record"] = base - same
	}
	layers := sources + m["coherence.access_ns"] + m["coherence.stream_ns"] +
		m["core.train_ns"] + m["core.drain_ns"] + m["sim.gens_ns_per_record"]
	m["sim.unattributed_ns_per_record"] = base - layers
	m["sim.trace_overhead_frac"] = median(tracedWall)/same - 1

	l, res := last, lastRes
	m["coherence.accesses"] = float64(l.records)
	m["coherence.l1_miss_ratio"] = ratio(l.l1Misses, l.records)
	m["coherence.l2_miss_ratio"] = ratio(l.l2Misses, l.l1Misses)
	m["coherence.evictions_per_kaccess"] = 1000 * ratio(l.evictions, l.records)
	m["coherence.invalidations_per_kaccess"] = 1000 * ratio(l.invalidations, l.records)
	m["coherence.stream_calls"] = float64(l.streamCalls)
	m["coherence.stream_fill_ratio"] = ratio(l.streamFills, l.streamCalls)
	m["core.trains"] = float64(l.trains)
	m["core.stream_requests"] = float64(l.streamRequests)
	m["core.pht_lookups"] = float64(l.pht.Lookups)
	m["core.pht_hits"] = float64(l.pht.Hits)
	m["core.pht_hit_ratio"] = ratio(l.pht.Hits, l.pht.Lookups)
	m["core.useful_ratio"] = ratio(res.L1CoveredMisses, res.StreamRequests)
	m["sim.stream_requests"] = float64(res.StreamRequests)
	m["sim.covered_misses"] = float64(res.L1CoveredMisses)
	m["sim.overpredictions"] = float64(res.Overpredictions)
	m["sim.offchip_blocks"] = float64(res.OffChipBlocks)
	return nil
}

// walkMemo times a replay of the in-memory trace through
// trace.SliceSource views, in ns per record.
func (b *single) walkMemo() float64 {
	src := trace.NewSliceSource(b.memo)
	var n int
	t0 := time.Now()
	for {
		v := src.NextView(batchRecords)
		if len(v) == 0 {
			break
		}
		n += len(v)
	}
	d := time.Since(t0)
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}
