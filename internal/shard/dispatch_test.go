package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/journal"
)

// fleetCampaign runs a spec campaign through a Fleet built from opts.
func fleetCampaign(t *testing.T, n int, f *Fleet, extra ...core.Option) (*core.SetResult, error) {
	t.Helper()
	opts := append([]core.Option{
		core.WithSpecs(campaignSpecs(n)),
		core.WithShardExecutor(f),
	}, extra...)
	return core.NewCampaign(newRunner(true), opts...).Run(context.Background())
}

// TestFleetMatchesUnsharded is the tentpole guarantee: the 200-spec
// campaign dispatched by the work-stealing fleet at widths 1/2/4/8 merges
// archive, trace and metrics byte-identical to the -parallel 1 run. CI
// runs this under -race.
func TestFleetMatchesUnsharded(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	var shapes []shape
	for _, w := range widths {
		shapes = append(shapes, shape{fmt.Sprintf("workers %d", w),
			[]core.Option{core.WithShardExecutor(NewFleet(FleetOptions{Workers: w, WorkerParallelism: 2}))}})
	}
	sets := requireMatches(t, func() *core.Runner { return newRunner(true) }, campaignSpecs(200), shapes)
	for i, set := range sets {
		workers := widths[i]
		st := set.Dispatch
		if st == nil || st.Workers != workers || st.Transport != "inprocess" {
			t.Fatalf("workers %d: dispatch stats %+v", workers, st)
		}
		if st.Degraded || st.LocalRuns != 0 || st.WorkersLost != 0 {
			t.Errorf("workers %d: clean fleet run reported degraded: %+v", workers, st)
		}
		if st.Chunks < workers {
			t.Errorf("workers %d: only %d chunks dispatched", workers, st.Chunks)
		}
	}
}

// TestFleetStragglerSpeculation pins the tail-latency defence: with one
// deliberately slow worker, idle fast workers speculatively re-execute
// its chunk, the first complete copy wins, and the duplicate results are
// discarded without disturbing the merged artifacts.
func TestFleetStragglerSpeculation(t *testing.T) {
	specs := campaignSpecs(40)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, _, _ := artifacts(t, base)

	f := NewFleet(FleetOptions{
		Workers:   2,
		ChunkSize: 20,
		ChaosSlow: "0:30", // worker 0 sleeps 30ms before every run
	})
	set, err := fleetCampaign(t, 40, f)
	if err != nil {
		t.Fatal(err)
	}
	archive, _, _ := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) {
		t.Error("archive differs from unsharded run under speculation")
	}
	if st := set.Dispatch; st.Speculated < 1 {
		t.Errorf("no speculative re-issue against a 30ms/run straggler: %+v", st)
	}
}

// TestFleetWorkerDeathRedispatch severs the first worker's stream after
// three records: its chunk's uncommitted remainder must be
// re-dispatched and the merged artifacts stay byte-identical.
func TestFleetWorkerDeathRedispatch(t *testing.T) {
	deathRedispatch(t, FleetOptions{Workers: 2})
}

// deathRedispatch runs a 60-spec campaign on a two-slot fleet whose
// first worker is severed after three lines.
func deathRedispatch(t *testing.T, opts FleetOptions, extra ...core.Option) {
	t.Helper()
	inner := InProcess()
	var spawned atomic.Int32
	opts.Spawn = func() (*Conn, error) {
		conn, err := inner()
		if err != nil {
			return nil, err
		}
		if spawned.Add(1) == 1 {
			conn.Out = &severReader{r: conn.Out, kill: conn.Kill, after: 3}
		}
		return conn, nil
	}
	opts.RedispatchBackoff = 5 * time.Millisecond
	sets := requireMatches(t, func() *core.Runner { return newRunner(true) }, campaignSpecs(60),
		[]shape{{"severed worker", append(extra, core.WithShardExecutor(NewFleet(opts)))}})
	st := sets[0].Dispatch
	if st.WorkerDeaths != 1 || st.Workers != 2 {
		t.Errorf("severed worker: dispatch stats %+v, want 2 slots and 1 death", st)
	}
	if st.Degraded {
		t.Errorf("death within the respawn budget must not degrade: %+v", st)
	}
	if n := spawned.Load(); n != 3 {
		t.Errorf("%d workers spawned, want 3 (2 slots + 1 respawn)", n)
	}
}

// TestFleetWedgedWorkerProgressDeadline arms the chaos hang on worker 0:
// after two records it wedges with heartbeats still flowing. The stall
// deadline never fires (the stream is alive); the progress deadline
// must kill it, and the respawned worker finishes the chunk.
func TestFleetWedgedWorkerProgressDeadline(t *testing.T) {
	specs := campaignSpecs(40)
	base, err := core.NewCampaign(newRunner(true),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, _, _ := artifacts(t, base)

	// One slot: no sibling can speculate the wedged chunk away, so the
	// progress deadline is the only way the campaign can finish.
	f := NewFleet(FleetOptions{
		Workers:           1,
		Heartbeat:         10 * time.Millisecond,
		StallDeadline:     2 * time.Second,
		ProgressDeadline:  150 * time.Millisecond,
		RedispatchBackoff: 5 * time.Millisecond,
		ChaosHang:         "0:2",
	})
	set, err := fleetCampaign(t, 40, f)
	if err != nil {
		t.Fatal(err)
	}
	archive, _, _ := artifacts(t, set)
	if !bytes.Equal(archive, wantArchive) {
		t.Error("archive differs from unsharded run after a wedged worker")
	}
	if st := set.Dispatch; st.WorkerDeaths < 1 {
		t.Errorf("wedged worker was never killed: %+v", st)
	}
}

// TestFleetDegradedCompletion exhausts every respawn budget — every
// spawned worker drops dead on assignment — and the campaign must still
// complete, in-process, reporting itself degraded instead of failing.
func TestFleetDegradedCompletion(t *testing.T) {
	degradedCompletion(t, FleetOptions{Workers: 2, MaxRespawns: 1, ChunkRetries: 1})
}

// degradedCompletion runs a 20-spec campaign on a two-slot fleet whose
// workers all die on assignment.
func degradedCompletion(t *testing.T, opts FleetOptions, extra ...core.Option) {
	t.Helper()
	opts.Spawn = fakeSpawner(func(in io.Reader, out io.Writer, _ <-chan struct{}) {
		st := journal.NewStream(in)
		st.Next() // header
		st.Next() // first chunk: accept it, then drop dead
	})
	opts.RedispatchBackoff = time.Millisecond
	sets := requireMatches(t, func() *core.Runner { return newRunner(true) }, campaignSpecs(20),
		[]shape{{"dead fleet", append(extra, core.WithShardExecutor(NewFleet(opts)))}})
	st := sets[0].Dispatch
	if !st.Degraded {
		t.Fatalf("in-process fallback not reported degraded: %+v", st)
	}
	if st.LocalRuns != len(sets[0].Runs) {
		t.Errorf("%d of %d runs executed locally", st.LocalRuns, len(sets[0].Runs))
	}
	if st.WorkersLost != 2 {
		t.Errorf("%d slots reported lost, want 2", st.WorkersLost)
	}
}

// TestFleetStatsPerCampaign shares one dead-worker Fleet between two
// concurrent campaigns of different sizes, as dts -experiment -shards
// does across its sets: each set must carry the stats of its own
// execution, not whichever campaign finished last.
func TestFleetStatsPerCampaign(t *testing.T) {
	f := NewFleet(FleetOptions{Workers: 2, MaxRespawns: 1, ChunkRetries: 1, RedispatchBackoff: time.Millisecond,
		Spawn: fakeSpawner(func(in io.Reader, out io.Writer, _ <-chan struct{}) {
			st := journal.NewStream(in)
			st.Next() // header
			st.Next() // first chunk: accept it, then drop dead
		})})
	sizes := []int{10, 30}
	sets := make([]*core.SetResult, len(sizes))
	errs := make([]error, len(sizes))
	var wg sync.WaitGroup
	for i, n := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets[i], errs[i] = fleetCampaign(t, n, f)
		}()
	}
	wg.Wait()
	for i, set := range sets {
		if errs[i] != nil {
			t.Fatalf("campaign %d: %v", i, errs[i])
		}
		if st := set.Dispatch; st == nil || !st.Degraded || st.LocalRuns != len(set.Runs) {
			t.Errorf("campaign of %d runs got dispatch stats %+v", len(set.Runs), st)
		}
	}
}

// TestFleetJournalProvenance attaches a journal: every committed run
// must land exactly once, the dispatch trail must record assignments
// covering the whole job list, and a degraded run must say so.
func TestFleetJournalProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	r := newRunner(false)
	jw, err := journal.Create(path, HeaderFor(r))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(FleetOptions{Workers: 2, Journal: jw})
	set, err := core.NewCampaign(r,
		core.WithSpecs(campaignSpecs(30)),
		core.WithShardExecutor(f),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := journal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Fatal("clean fleet journal replayed as torn")
	}
	if rep.Plan == nil || len(rep.Plan.Jobs) != len(set.Runs) {
		t.Fatalf("journal plan missing or short: %+v", rep.Plan)
	}
	if len(rep.Runs) != len(set.Runs) {
		t.Fatalf("journal holds %d runs, campaign ran %d", len(rep.Runs), len(set.Runs))
	}
	covered := make(map[int]bool)
	var sawAssign bool
	for _, ev := range rep.Dispatch {
		switch ev.Event {
		case "assign", "speculate", "local", "redispatch":
			sawAssign = sawAssign || ev.Event == "assign"
			for _, g := range ev.Indices {
				covered[g] = true
			}
		case "degraded":
			t.Errorf("clean run journaled a degraded event")
		}
	}
	if !sawAssign {
		t.Fatal("no assign events in the dispatch trail")
	}
	for g := range set.Runs {
		if !covered[g] {
			t.Fatalf("job %d never appears in the dispatch trail", g)
		}
	}
}

// TestFleetCancellation: cancelling mid-campaign surfaces
// ErrInterrupted with no set, matching the in-process pool.
func TestFleetCancellation(t *testing.T) {
	cancellation(t, core.WithShardExecutor(NewFleet(FleetOptions{Workers: 2})))
}

// cancellation cancels a 120-spec dispatched campaign after five runs.
func cancellation(t *testing.T, exec core.Option) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set, err := core.NewCampaign(newRunner(false),
		core.WithSpecs(campaignSpecs(120)),
		exec,
		core.WithProgress(func(done, total int) {
			if done == 5 {
				cancel()
			}
		}),
	).Run(ctx)
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("error = %v, want ErrInterrupted", err)
	}
	if set != nil {
		t.Fatal("cancelled fleet campaign must not return a set")
	}
}

// TestFleetWorkerErrorIsFatal: an error record is a deterministic run
// failure — the fleet fails the campaign without burning respawns.
func TestFleetWorkerErrorIsFatal(t *testing.T) {
	errorRecordIsFatal(t, FleetOptions{Workers: 2}, false)
}

// errorRecordIsFatal runs an 8-spec campaign on a two-slot fleet whose
// workers answer with an error record — volunteered at once, or after
// reading the session header and the first chunk.
func errorRecordIsFatal(t *testing.T, opts FleetOptions, readChunk bool, extra ...core.Option) {
	t.Helper()
	var spawned atomic.Int32
	spawn := fakeSpawner(func(in io.Reader, out io.Writer, _ <-chan struct{}) {
		st := journal.NewStream(in)
		if readChunk {
			st.Next() // header
			st.Next() // plan
		}
		// The fleet holds the assignment stream open for more chunks, so
		// keep it drained rather than wait for EOF.
		go func() {
			for _, err := st.Next(); err == nil; _, err = st.Next() {
			}
		}()
		io.WriteString(out, `{"kind":"error","index":3,"message":"run exploded"}`+"\n")
	})
	opts.Spawn = func() (*Conn, error) {
		spawned.Add(1)
		return spawn()
	}
	_, err := core.NewCampaign(newRunner(false),
		append(extra, core.WithSpecs(campaignSpecs(8)), core.WithShardExecutor(NewFleet(opts)))...,
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "run exploded") {
		t.Fatalf("error = %v, want the worker's error message", err)
	}
	if n := spawned.Load(); n != 2 {
		t.Fatalf("%d workers spawned, want 2 (error records must not respawn)", n)
	}
}

// TestFleetProgressContract: the fleet preserves the Progress contract
// under work stealing — serialized, strictly +1, probes excluded — and
// the merged generated campaign deep-equals the in-process one.
func TestFleetProgressContract(t *testing.T) {
	generatedCampaign(t, core.WithShardExecutor(NewFleet(FleetOptions{Workers: 3, WorkerParallelism: 2})))
}
