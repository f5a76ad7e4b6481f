package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fault"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestJournalRoundTrip appends the three record kinds and proves replay
// reconstructs the jobs exactly.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	jl, jobs, err := openJournal(path, nil, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(jobs))
	}
	specA := jobSpec{Kind: "run", Target: "sparse/sms", Run: &RunRequest{Workload: "sparse", Prefetcher: "sms"}}
	specB := jobSpec{Kind: "figure", Target: "fig2", Dedupe: "figure/fig2", Figure: "fig2"}
	now := time.Now().UTC().Truncate(time.Millisecond)
	appendAll := []journalRecord{
		{Op: journalOpAccepted, ID: "aaaa", Time: now, Spec: &specA},
		{Op: journalOpAccepted, ID: "bbbb", Time: now.Add(time.Second), Spec: &specB},
		{Op: journalOpStarted, ID: "aaaa", Time: now.Add(2 * time.Second)},
		{Op: journalOpSettled, ID: "bbbb", Time: now.Add(3 * time.Second), State: JobFailed, Error: "boom"},
	}
	for _, rec := range appendAll {
		if err := jl.append(rec); err != nil {
			t.Fatalf("append %s/%s: %v", rec.Op, rec.ID, err)
		}
	}
	jl.close()

	jl2, jobs, err := openJournal(path, nil, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	a, b := jobs[0], jobs[1]
	if a.id != "aaaa" || !a.started || a.settled || a.spec.Run == nil || a.spec.Run.Workload != "sparse" {
		t.Fatalf("job a replayed wrong: %+v", a)
	}
	if !a.created.Equal(now) {
		t.Fatalf("job a created %v, want %v", a.created, now)
	}
	if b.id != "bbbb" || !b.settled || b.state != JobFailed || b.errText != "boom" || b.spec.Figure != "fig2" {
		t.Fatalf("job b replayed wrong: %+v", b)
	}
	if n := jl2.tornCount(); n != 0 {
		t.Fatalf("clean journal reported %d torn records", n)
	}
}

// TestJournalTornTailTruncated proves a frame cut short by a kill is
// truncated away on replay — the earlier records survive, and appends
// resume cleanly after the truncation.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	jl, _, err := openJournal(path, nil, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	spec := jobSpec{Kind: "figure", Target: "f", Figure: "f"}
	if err := jl.append(journalRecord{Op: journalOpAccepted, ID: "good", Time: time.Now(), Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := jl.append(journalRecord{Op: journalOpStarted, ID: "good", Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	jl.close()

	// Tear the tail: chop the last frame mid-payload, as a kill between
	// write and sync would.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	jl2, jobs, err := openJournal(path, nil, testLogger())
	if err != nil {
		t.Fatalf("replay over torn tail: %v", err)
	}
	if len(jobs) != 1 || jobs[0].id != "good" || jobs[0].started {
		t.Fatalf("torn replay got %+v, want job %q one state earlier", jobs, "good")
	}
	if n := jl2.tornCount(); n != 1 {
		t.Fatalf("torn records = %d, want 1", n)
	}
	// Appends resume from the truncation point and the journal is whole
	// again on the next replay.
	if err := jl2.append(journalRecord{Op: journalOpStarted, ID: "good", Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	jl2.close()
	jl3, jobs, err := openJournal(path, nil, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.close()
	if len(jobs) != 1 || !jobs[0].started || jl3.tornCount() != 0 {
		t.Fatalf("post-repair replay got %+v (torn=%d)", jobs, jl3.tornCount())
	}
}

// TestJournalAppendCrashTearsFrame drives the journal.append fault site
// with a partial-write rule and proves the injected torn prefix is
// truncated away on the next open, leaving the job one state earlier.
func TestJournalAppendCrashTearsFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Site: "journal.append.settled", Kind: fault.KindPartial, Frac: 0.5},
	}})
	jl, _, err := openJournal(path, inj, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	spec := jobSpec{Kind: "figure", Target: "f", Figure: "f"}
	if err := jl.append(journalRecord{Op: journalOpAccepted, ID: "j1", Time: time.Now(), Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	err = jl.append(journalRecord{Op: journalOpSettled, ID: "j1", Time: time.Now(), State: JobDone, Spec: &spec})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("settled append under partial rule: %v", err)
	}
	jl.close()

	jl2, jobs, err := openJournal(path, nil, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	if len(jobs) != 1 || jobs[0].settled {
		t.Fatalf("replay after torn settled append: %+v, want live job", jobs)
	}
	if jl2.tornCount() != 1 {
		t.Fatalf("torn records = %d, want 1", jl2.tornCount())
	}
}

// startRestartableServer builds a server whose lifetime the test
// controls (no automatic cleanup close — restarts need explicit
// ordering).
func startRestartableServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// TestRestartRecovery is the crash-point table: kill the daemon at each
// point in a run job's settlement path, restart it over the same store
// and journal, and prove the job reaches done exactly once with a
// byte-identical result. The heartbeat-blackout crash point lives in
// the cluster package's chaos tests, where there is a cluster to
// blackout.
func TestRestartRecovery(t *testing.T) {
	cases := []struct {
		name string
		// rules is the fault plan for the first daemon; the crash rule
		// models the kill (the injector's crashed state fails every
		// subsequent store/journal write, exactly as death would).
		rules []fault.Rule
		// resim: the restart must re-simulate (the result never reached
		// the store). Otherwise the restart settles warm from the store
		// without running anything.
		resim bool
		// requeued: the restart sees a live (unsettled) journal entry.
		requeued bool
	}{
		{name: "clean-shutdown", rules: nil, resim: false, requeued: false},
		// Killed mid store write, before the rename publishes the object:
		// no result on disk, the journal holds accepted+started, and the
		// restart re-runs the simulation.
		{name: "pre-rename", rules: []fault.Rule{
			{Site: "store.results.write", Kind: fault.KindCrash},
		}, resim: true, requeued: true},
		// Killed after the store rename but before the settled record hit
		// the journal: the restart re-queues the job and the engine's
		// store probe settles it warm — nothing re-simulates.
		{name: "post-rename-pre-journal", rules: []fault.Rule{
			{Site: "journal.append.settled", Kind: fault.KindPartial, Frac: 0.4},
		}, resim: false, requeued: true},
		// Killed mid trace-artifact publish (the artifact plane the
		// cluster syncs): the temp file stays as debris, the torn artifact
		// is never visible, and the run re-simulates because its result
		// write also died with the process.
		{name: "mid-artifact-sync", rules: []fault.Rule{
			{Site: "store.traces.rename", Kind: fault.KindCrash},
		}, resim: true, requeued: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			storeDir := filepath.Join(dir, "store")
			journalPath := filepath.Join(dir, "journal")

			inj := fault.MustNew(fault.Plan{Rules: tc.rules})
			sess1 := tinySession(t, storeDir)
			sess1.Store().SetFault(inj)
			srv1, ts1 := startRestartableServer(t, Config{
				Session: sess1, Workers: 2, JournalPath: journalPath, Fault: inj,
			})

			code, body := postJSON(t, ts1.URL+"/v1/runs", `{"workload":"sparse","prefetcher":"sms"}`)
			if code != http.StatusAccepted {
				t.Fatalf("POST /v1/runs: %d %s", code, body)
			}
			doc1 := pollJob(t, ts1.URL, decodeJob(t, body).ID)
			if doc1.State != JobDone || doc1.Result == nil {
				t.Fatalf("first life settled %s (%s)", doc1.State, doc1.Error)
			}
			want, err := json.Marshal(doc1.Result)
			if err != nil {
				t.Fatal(err)
			}
			ts1.Close()
			srv1.Close()

			sess2 := tinySession(t, storeDir)
			srv2, ts2 := startRestartableServer(t, Config{
				Session: sess2, Workers: 2, JournalPath: journalPath,
			})
			defer func() { ts2.Close(); srv2.Close() }()

			doc2 := pollJob(t, ts2.URL, doc1.ID)
			if doc2.State != JobDone || doc2.Result == nil {
				t.Fatalf("restart settled %s (%s)", doc2.State, doc2.Error)
			}
			got, err := json.Marshal(doc2.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("result across restart diverged:\n first: %s\nsecond: %s", want, got)
			}
			if sims := sess2.Simulations(); (sims > 0) != tc.resim {
				t.Fatalf("restart simulations = %d, want resim=%v", sims, tc.resim)
			}
			if req := srv2.recRequeued.Load(); (req > 0) != tc.requeued {
				t.Fatalf("requeued = %d, want requeued=%v", req, tc.requeued)
			}
			if !tc.requeued && srv2.recRestored.Load() == 0 {
				t.Fatal("clean restart restored no settled jobs")
			}
		})
	}
}

// TestRestartRequeuesQueuedJobs kills a daemon (abandons it, as SIGKILL
// would) with one job running and one still queued, then proves the
// restart re-queues both — the acceptance contract: jobs submitted
// before the kill reach done after it, under the same ids.
func TestRestartRequeuesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	journalPath := filepath.Join(dir, "journal")

	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	stalled := map[string]exp.Runner{
		"stall": func(ctx context.Context, s *exp.Session) (string, error) { <-release; return "stalled figure", nil },
	}
	sess1 := tinySession(t, storeDir)
	srv1, ts1 := startRestartableServer(t, Config{
		Session: sess1, Workers: 1, Experiments: stalled, JournalPath: journalPath,
	})

	// Job 1 occupies the single worker; job 2 sits in the queue.
	code, body := postJSON(t, ts1.URL+"/v1/figures/stall", "")
	if code != http.StatusAccepted {
		t.Fatalf("POST figure: %d %s", code, body)
	}
	figID := decodeJob(t, body).ID
	code, body = postJSON(t, ts1.URL+"/v1/runs", `{"workload":"sparse"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST run: %d %s", code, body)
	}
	runID := decodeJob(t, body).ID

	// Die without ceremony: no Shutdown, no journal close — the blocked
	// worker goroutine is the corpse (released at cleanup).
	ts1.Close()

	fast := map[string]exp.Runner{
		"stall": func(ctx context.Context, s *exp.Session) (string, error) { return "stalled figure", nil },
	}
	sess2 := tinySession(t, storeDir)
	srv2, ts2 := startRestartableServer(t, Config{
		Session: sess2, Workers: 2, Experiments: fast, JournalPath: journalPath,
	})
	defer func() {
		ts2.Close()
		srv2.Close()
		// Release the corpse's stalled worker and let it drain before
		// the temporary store directory is removed: it still settles
		// its jobs into the shared store.
		select {
		case <-release:
		default:
			close(release)
		}
		srv1.Close()
	}()

	figDoc := pollJob(t, ts2.URL, figID)
	if figDoc.State != JobDone || figDoc.Figure != "stalled figure" {
		t.Fatalf("figure job after restart: %s (%s) %q", figDoc.State, figDoc.Error, figDoc.Figure)
	}
	runDoc := pollJob(t, ts2.URL, runID)
	if runDoc.State != JobDone || runDoc.Result == nil {
		t.Fatalf("run job after restart: %s (%s)", runDoc.State, runDoc.Error)
	}
	if got := srv2.recRequeued.Load(); got != 2 {
		t.Fatalf("requeued = %d, want 2", got)
	}
}

// TestRestartCachedJobsRestored proves cache-settled jobs (the fast
// path that never touches the pool) survive restarts: their settled
// record is self-contained.
func TestRestartCachedJobsRestored(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	journalPath := filepath.Join(dir, "journal")

	sess1 := tinySession(t, storeDir)
	srv1, ts1 := startRestartableServer(t, Config{Session: sess1, Workers: 2, JournalPath: journalPath})

	code, body := postJSON(t, ts1.URL+"/v1/runs", `{"workload":"sparse"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST run: %d %s", code, body)
	}
	first := pollJob(t, ts1.URL, decodeJob(t, body).ID)
	if first.State != JobDone {
		t.Fatalf("first run settled %s", first.State)
	}
	// Second POST settles from cache — no worker slot, no accepted record.
	code, body = postJSON(t, ts1.URL+"/v1/runs", `{"workload":"sparse"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST cached run: %d %s", code, body)
	}
	cached := decodeJob(t, body)
	if cached.State != JobDone {
		t.Fatalf("cached run settled %s", cached.State)
	}
	ts1.Close()
	srv1.Close()

	sess2 := tinySession(t, storeDir)
	srv2, ts2 := startRestartableServer(t, Config{Session: sess2, Workers: 2, JournalPath: journalPath})
	defer func() { ts2.Close(); srv2.Close() }()

	for _, id := range []string{first.ID, cached.ID} {
		doc := pollJob(t, ts2.URL, id)
		if doc.State != JobDone || doc.Result == nil {
			t.Fatalf("job %s after restart: %s result=%v", id, doc.State, doc.Result != nil)
		}
	}
	if got := srv2.recRestored.Load(); got != 2 {
		t.Fatalf("restored = %d, want 2", got)
	}
	if sims := sess2.Simulations(); sims != 0 {
		t.Fatalf("restored jobs re-simulated %d times", sims)
	}
}

// TestRecoveryUnrunnableJobSettlesFailed proves a journaled job whose
// spec no longer resolves (a figure renamed across the restart) is
// settled failed and stays visible — never silently dropped, never a
// crash loop.
func TestRecoveryUnrunnableJobSettlesFailed(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal")
	jl, _, err := openJournal(journalPath, nil, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	spec := jobSpec{Kind: "figure", Target: "gone", Dedupe: "figure/gone", Figure: "gone"}
	if err := jl.append(journalRecord{Op: journalOpAccepted, ID: "ghost", Time: time.Now(), Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	jl.close()

	sess := tinySession(t, "")
	srv, ts := startRestartableServer(t, Config{
		Session: sess, Workers: 1, JournalPath: journalPath,
		Experiments: map[string]exp.Runner{}, // "gone" is gone
	})
	defer func() { ts.Close(); srv.Close() }()

	doc := pollJob(t, ts.URL, "ghost")
	if doc.State != JobFailed || doc.Error == "" {
		t.Fatalf("unrunnable job settled %s (%q), want failed", doc.State, doc.Error)
	}
}

// TestJournalCompaction proves the journal shrinks: a burst of settled
// jobs compacts down to one summary record each, and the compacted file
// still replays every retained job.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	journalPath := filepath.Join(dir, "journal")

	sess1 := tinySession(t, storeDir)
	srv1, ts1 := startRestartableServer(t, Config{Session: sess1, Workers: 2, JournalPath: journalPath})

	// One real run (3 records) plus cached settlements (1 each).
	code, body := postJSON(t, ts1.URL+"/v1/runs", `{"workload":"sparse"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST run: %d %s", code, body)
	}
	pollJob(t, ts1.URL, decodeJob(t, body).ID)
	for i := 0; i < 4; i++ {
		if code, _ := postJSON(t, ts1.URL+"/v1/runs", `{"workload":"sparse"}`); code != http.StatusAccepted {
			t.Fatalf("POST cached run %d: %d", i, code)
		}
	}
	ts1.Close()
	srv1.Close()
	grown, err := os.Stat(journalPath)
	if err != nil {
		t.Fatal(err)
	}

	// Recovery compacts: 5 settled jobs → 5 summary records.
	sess2 := tinySession(t, storeDir)
	srv2, ts2 := startRestartableServer(t, Config{Session: sess2, Workers: 2, JournalPath: journalPath})
	compacted, err := os.Stat(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("recovery compaction did not shrink the journal: %d → %d bytes", grown.Size(), compacted.Size())
	}
	if got := srv2.journal.compactionCount(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	code, body = get(t, ts2.URL+"/v1/jobs?state=done")
	if code != http.StatusOK {
		t.Fatalf("GET jobs: %d %s", code, body)
	}
	var docs []JobDoc
	if err := json.Unmarshal([]byte(body), &docs); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	srv2.Close()
	if len(docs) != 5 {
		t.Fatalf("jobs after compacting restart = %d, want 5", len(docs))
	}

	// And the compacted journal replays on its own.
	jl, jobs, err := openJournal(journalPath, nil, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	if len(jobs) != 5 {
		t.Fatalf("compacted journal replayed %d jobs, want 5", len(jobs))
	}
	for _, jj := range jobs {
		if !jj.settled || jj.state != JobDone {
			t.Fatalf("compacted job %s replayed unsettled: %+v", jj.id, jj)
		}
	}
}
