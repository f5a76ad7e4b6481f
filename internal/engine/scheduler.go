package engine

// The cell scheduler seam: everything above this interface (plan
// compilation, run-level memoization, store write-through, grid
// settlement) is transport-agnostic, and everything below it decides
// *where* a cell executes. The default LocalScheduler runs cells on this
// process's bounded worker pool — exactly the pre-scheduler code path, so
// local execution stays bit-identical — while internal/cluster plugs in a
// Coordinator that scatters cells across worker daemons.

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RunSpec identifies one resolved, deduplicated simulation cell: the
// unit of work a CellScheduler executes. Config is fully resolved (the
// engine's warm-up convention applied) and Key is its content address —
// the same SHA-256 identity the store persists under, so two engines
// that agree on a Key agree on every bit of the cell's definition.
type RunSpec struct {
	// Workload is the registered workload name.
	Workload string `json:"workload"`
	// Config is the resolved simulator configuration.
	Config sim.Config `json:"config"`
	// Key is the cell's content address (store.ForRun over the resolved
	// identity).
	Key string `json:"key"`
}

// CellScheduler executes one run cell. Implementations decide placement:
// LocalScheduler simulates on this process's pool; a cluster coordinator
// dispatches to remote workers with retry and failover.
//
// Contract: Schedule emits RunStarted once execution is committed
// somewhere (and RunProgress as records are processed, when available);
// the engine itself emits the settling RunCached/RunFinished/RunFailed
// events and owns store write-through, so implementations return the raw
// result and never touch the engine's store. Schedule must honor ctx and
// must not call emit after it returns.
type CellScheduler interface {
	Schedule(ctx context.Context, spec RunSpec, emit func(Event)) (*sim.Result, error)
}

// localScheduler executes cells on the engine's own worker pool.
type localScheduler struct{ e *Engine }

// LocalScheduler returns the engine's in-process scheduler: cells run
// under the engine's semaphore on this machine. It is the default, and
// the fallback a cluster coordinator uses when no workers are registered.
func (e *Engine) LocalScheduler() CellScheduler { return localScheduler{e} }

// SetScheduler routes all subsequent cell execution through s (nil
// restores the local scheduler). Like SetStore on the session, it must
// be called before the engine runs anything; memoization, store
// write-through and event settlement stay above the scheduler either
// way.
func (e *Engine) SetScheduler(s CellScheduler) {
	if s == nil {
		s = localScheduler{e}
	}
	e.sched = s
}

// Schedule runs the cell on the local pool. This is the pre-cluster
// execution path moved verbatim behind the interface: semaphore bound,
// trace memo/tier source resolution, span tracing, progress events.
func (l localScheduler) Schedule(ctx context.Context, spec RunSpec, emit func(Event)) (*sim.Result, error) {
	e := l.e
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.fault.Point("engine.schedule"); err != nil {
		// Injected pre-start failure: the cell never commits, mirroring
		// a scheduler that could not place the run.
		return nil, err
	}

	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(spec.Config)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", spec.Workload, err)
	}
	// Execution tuning only: lanes and decode-ahead never enter the
	// cell's identity (spec.Key), so tuned and serial engines share
	// store objects bit for bit.
	runner.SetExec(sim.Exec{Lanes: e.cfg.RunParallel, DecodeAhead: e.cfg.DecodeAhead})
	emit(Event{Kind: RunStarted})
	runner.OnProgress(e.cfg.ProgressInterval, func(records uint64) {
		emit(Event{Kind: RunProgress, Records: records})
	})
	e.sims.Add(1)
	src := e.openTrace(ctx, w)
	runSpan := obs.TracerFrom(ctx).Start("run", "engine", obs.TrackFrom(ctx))
	res, err := runner.RunContext(ctx, src)
	runSpan.End()
	e.harvestPipeline(runner.PipelineStats())
	return res, err
}
