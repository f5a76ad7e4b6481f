package exp

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nextline"
	"repro/internal/sectored"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TrainingStructure labels the Fig. 8 variants.
type TrainingStructure string

// Figure 8 training structures, plus the next-line floor baseline (an
// extension series: a spatial-pattern-free sequential prefetcher, added
// through the sim registry).
const (
	TrainDS  TrainingStructure = "DS"
	TrainLS  TrainingStructure = "LS"
	TrainAGT TrainingStructure = "AGT"
	TrainNL  TrainingStructure = "NL"
)

// Fig8Row is one (group, training structure) bar.
type Fig8Row struct {
	Group    string
	Train    TrainingStructure
	Coverage sim.Coverage
}

// Fig8Result is the Figure 8 dataset.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8Plan declares the Figure 8 grid: AGT (standard SMS), LS, and
// next-line variants as standard runs, and the decoupled-sectored study
// as a custom cell per workload — the DS structure *is* the L1, so it
// cannot reuse the coherent-hierarchy runner (and is memoized only at
// the figure level, not the run store).
func Fig8Plan(o Options) engine.Plan {
	p := basePlan("fig8", o)
	p = p.WithVariant(string(TrainAGT), sim.Config{
		Coherence:      o.MemorySystem(64),
		PrefetcherName: "sms",
		SMS:            core.Config{PHTEntries: -1},
	})
	p = p.WithVariant(string(TrainLS), sim.Config{
		Coherence:      o.MemorySystem(64),
		PrefetcherName: "ls",
		LS:             sectored.Config{PHTEntries: -1},
	})
	p = p.WithVariant(string(TrainNL), sim.Config{
		Coherence:      o.MemorySystem(64),
		PrefetcherName: nextline.Name,
	})
	dsCfg := sectored.Config{
		CacheSize:  o.MemorySystem(64).L1.Size,
		PHTEntries: -1,
	}
	for _, name := range p.Workloads {
		name := name
		p.Customs = append(p.Customs, engine.Custom{
			Workload: name,
			Key:      string(TrainDS),
			Run: func(ctx context.Context, src trace.Source) (any, error) {
				return runDS(ctx, o, src, dsCfg)
			},
		})
	}
	return p
}

// Fig8 reproduces Figure 8: training-structure comparison (decoupled
// sectored cache, logical sectored tags, AGT) with an unbounded PHT.
// Coverage is measured against the traditional-cache baseline, so the DS
// cache's extra conflict misses appear as uncovered misses beyond 100%.
// A fourth series extends the figure with the next-line floor baseline,
// selected purely by its registry name.
func Fig8(ctx context.Context, s *Session) (*Fig8Result, error) {
	names := WorkloadNames()
	structures := []TrainingStructure{TrainDS, TrainLS, TrainAGT, TrainNL}
	grid, err := s.Execute(ctx, Fig8Plan(s.Options()))
	if err != nil {
		return nil, err
	}

	covs := make(map[string]map[TrainingStructure]sim.Coverage, len(names))
	for _, name := range names {
		base := grid.Baseline(name)
		cs := make(map[TrainingStructure]sim.Coverage, len(structures))
		for _, st := range []TrainingStructure{TrainAGT, TrainLS, TrainNL} {
			cs[st] = grid.Result(name, string(st)).L1Coverage(base)
		}
		ds := grid.Custom(name, string(TrainDS)).(dsOutcome)
		cs[TrainDS] = sim.CoverageFrom(ds.readMisses, ds.overpredictions, base.L1ReadMisses)
		covs[name] = cs
	}

	res := &Fig8Result{}
	for _, g := range GroupNames() {
		for _, st := range structures {
			res.Rows = append(res.Rows, Fig8Row{
				Group: g,
				Train: st,
				Coverage: sim.Coverage{
					Covered:       meanOver(names, func(n string) float64 { return covs[n][st].Covered })[g],
					Uncovered:     meanOver(names, func(n string) float64 { return covs[n][st].Uncovered })[g],
					Overpredicted: meanOver(names, func(n string) float64 { return covs[n][st].Overpredicted })[g],
				},
			})
		}
	}
	return res, nil
}

// dsOutcome is the DS study's raw counts.
type dsOutcome struct {
	readMisses      uint64 // post-warm-up demand read misses
	covered         uint64 // post-warm-up read prefetch hits
	overpredictions uint64
}

// runDS drives the decoupled sectored cache study over src, the
// workload's trace as the engine serves it to the variant cells.
// Cancellation is checked once per progress interval, mirroring
// sim.Runner.RunContext.
func runDS(ctx context.Context, o Options, src trace.Source, cfg sectored.Config) (dsOutcome, error) {
	warmup := o.Length / 2

	ds := make([]*sectored.DecoupledSectored, o.CPUs)
	for i := range ds {
		ds[i] = sectored.MustNewDecoupledSectored(cfg)
	}
	var out dsOutcome
	var processed uint64
	next := uint64(sim.DefaultProgressInterval)
	// Overpredictions are accumulated inside the DS structures, so
	// snapshot them at the warm-up boundary and subtract.
	warmOver := make([]uint64, o.CPUs)
	snapshotted := false

	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		processed++
		if processed >= next {
			next = processed + sim.DefaultProgressInterval
			if err := ctx.Err(); err != nil {
				return dsOutcome{}, err
			}
		}
		if !snapshotted && processed > warmup {
			for i, d := range ds {
				warmOver[i] = d.Overpredictions()
			}
			snapshotted = true
		}
		cpu := int(rec.CPU)
		d := ds[cpu]
		res := d.Access(rec.PC, rec.Addr)
		warm := processed > warmup
		if warm && !rec.IsWrite() {
			if !res.Hit {
				out.readMisses++
			}
			if res.PrefetchHit {
				out.covered++
			}
		}
		for _, a := range d.NextStreamRequests(sim.DefaultStreamRate) {
			d.Fill(a)
		}
	}
	// A damaged disk-tier trace ends early like a clean one; its latched
	// error keeps a partial replay from passing for a result.
	if e, ok := src.(interface{ Err() error }); ok {
		if err := e.Err(); err != nil {
			return dsOutcome{}, err
		}
	}
	for i, d := range ds {
		out.overpredictions += d.Overpredictions() - warmOver[i]
	}
	return out, nil
}

// Render formats the dataset as the Figure 8 bars.
func (r *Fig8Result) Render() string {
	t := NewTable("Figure 8: training structure comparison (unbounded PHT)",
		"group", "training", "coverage", "uncovered", "overpredictions")
	t.SetCaption("DS = decoupled sectored cache, LS = logical sectored tags, AGT = active generation table, NL = next-line floor baseline. DS constrains cache contents, so its uncovered misses can exceed 100% of the baseline.")
	for _, row := range r.Rows {
		t.AddRow(row.Group, string(row.Train),
			Pct(row.Coverage.Covered), Pct(row.Coverage.Uncovered), Pct(row.Coverage.Overpredicted))
	}
	return t.Render()
}
