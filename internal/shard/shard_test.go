package shard

// Shared test fixtures, plus the -shards spelling of the fleet suite:
// each test here runs a fleet sized by WithShards (FleetOptions.Workers
// left zero, the shape the registered default and perfbench use)
// through the same body as its TestFleet* twin in dispatch_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim/win32"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

// campaignSpecs builds a deterministic n-fault list spanning the KERNEL32
// catalog — the same shape dts fault-list campaigns (and the CI shard
// job) run.
func campaignSpecs(n int) []inject.FaultSpec {
	types := inject.AllFaultTypes()
	var specs []inject.FaultSpec
	for i, e := range win32.Catalog() {
		if e.Params == 0 {
			continue
		}
		specs = append(specs, inject.FaultSpec{
			Function:   e.Name,
			Param:      i % e.Params,
			Invocation: 1,
			Type:       types[i%len(types)],
		})
		if len(specs) == n {
			break
		}
	}
	return specs
}

func newRunner(tel bool) *core.Runner {
	opts := core.DefaultRunnerOptions()
	opts.Telemetry = telemetry.Options{Enabled: tel}
	return core.NewRunner(workload.NewApache1(workload.Standalone), opts)
}

// artifacts renders the three byte-compared campaign outputs: the archive
// JSON, the merged telemetry trace, and the metrics text.
func artifacts(t *testing.T, set *core.SetResult) (archive, trace []byte, metrics string) {
	t.Helper()
	archive, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if set.Telemetry != nil {
		var buf bytes.Buffer
		if err := set.Telemetry.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		trace = buf.Bytes()
		metrics = set.Telemetry.MetricsText()
	}
	return archive, trace, metrics
}

// shape is one way to execute a campaign: its name and the options that
// select the executor.
type shape struct {
	name string
	opts []core.Option
}

// requireMatches runs specs in-process at -parallel 1, then once per
// shape, and requires archive, trace and metrics byte-identical to the
// in-process run. It returns each shape's set for further checks.
func requireMatches(t *testing.T, mk func() *core.Runner, specs []inject.FaultSpec, shapes []shape) []*core.SetResult {
	t.Helper()
	base, err := core.NewCampaign(mk(),
		core.WithParallelism(1), core.WithSpecs(specs)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantArchive, wantTrace, wantMetrics := artifacts(t, base)
	sets := make([]*core.SetResult, len(shapes))
	for i, sh := range shapes {
		set, err := core.NewCampaign(mk(),
			append([]core.Option{core.WithSpecs(specs)}, sh.opts...)...).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		archive, trace, metrics := artifacts(t, set)
		if !bytes.Equal(archive, wantArchive) {
			t.Errorf("%s: archive differs from the in-process run", sh.name)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("%s: telemetry trace differs from the in-process run", sh.name)
		}
		if metrics != wantMetrics {
			t.Errorf("%s: metrics text differs from the in-process run", sh.name)
		}
		sets[i] = set
	}
	return sets
}

// severReader passes a worker's stream through until it has delivered n
// lines, then kills the worker — the InProcess stand-in for a SIGKILL
// mid-chunk.
type severReader struct {
	r     io.Reader
	kill  func()
	after int
	seen  int
	dead  bool
}

func (s *severReader) Read(p []byte) (int, error) {
	if s.dead {
		return 0, io.ErrUnexpectedEOF
	}
	n, err := s.r.Read(p)
	s.seen += bytes.Count(p[:n], []byte("\n"))
	if s.seen >= s.after && !s.dead {
		s.dead = true
		s.kill()
	}
	return n, err
}

// fakeSpawner runs a hand-written protocol peer instead of ServeWorker —
// how the tests stage worker misbehaviour the real worker never
// exhibits. serve gets a killed channel that closes when the coordinator
// kills the connection.
func fakeSpawner(serve func(in io.Reader, out io.Writer, killed <-chan struct{})) Spawner {
	return func() (*Conn, error) {
		assignR, assignW := io.Pipe()
		resultR, resultW := io.Pipe()
		killed := make(chan struct{})
		var once sync.Once
		kill := func() {
			once.Do(func() {
				close(killed)
				assignR.CloseWithError(io.ErrClosedPipe)
				resultW.CloseWithError(io.ErrUnexpectedEOF)
			})
		}
		go func() {
			serve(assignR, resultW, killed)
			resultW.Close()
		}()
		return &Conn{In: assignW, Out: resultR, Kill: kill, Wait: func() error { return nil }}, nil
	}
}

// firstThen spawns first for the first session and InProcess workers
// after that, counting spawns.
func firstThen(first Spawner, spawned *atomic.Int32) Spawner {
	inner := InProcess()
	return func() (*Conn, error) {
		if spawned.Add(1) == 1 {
			return first()
		}
		return inner()
	}
}

func TestParseChaosKill(t *testing.T) {
	if w, n, err := parseChaosKill(""); err != nil || w != -1 || n != 0 {
		t.Fatalf("empty spec: %d %d %v", w, n, err)
	}
	if w, n, err := parseChaosKill("2:17"); err != nil || w != 2 || n != 17 {
		t.Fatalf("2:17: %d %d %v", w, n, err)
	}
	for _, bad := range []string{"2", ":3", "2:", "x:3", "2:x", "-1:3", "2:0"} {
		if _, _, err := parseChaosKill(bad); err == nil || !strings.Contains(err.Error(), "worker:n") {
			t.Errorf("parseChaosKill(%q): err = %v, want a worker:n parse error", bad, err)
		}
	}
	// Every drill knob reaches the same parser.
	for _, opts := range []FleetOptions{{ChaosKill: "bogus"}, {ChaosHang: "bogus"}, {ChaosSlow: "bogus"}} {
		_, err := core.NewCampaign(newRunner(false), core.WithSpecs(campaignSpecs(2)),
			core.WithShardExecutor(NewFleet(opts))).Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "bad chaos spec") {
			t.Errorf("%+v: err = %v, want a chaos spec error", opts, err)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	r := newRunner(true)
	got, err := RunnerFromHeader(HeaderFor(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Def.Name != r.Def.Name || got.Def.Supervision != r.Def.Supervision {
		t.Fatalf("definition drifted: %s/%s -> %s/%s",
			r.Def.Name, r.Def.Supervision, got.Def.Name, got.Def.Supervision)
	}
	if got.Opts.Telemetry != r.Opts.Telemetry ||
		got.Opts.ServerUpTimeout != r.Opts.ServerUpTimeout ||
		got.Opts.RunDeadline != r.Opts.RunDeadline {
		t.Fatalf("options drifted: %+v -> %+v", r.Opts, got.Opts)
	}
}

// TestShardedMatchesUnsharded pins -shards 1/2/4/8 at the core layer:
// WithShards alone runs the registered fleet (1 stays in-process), and
// the 200-spec campaign's archive, trace and metrics stay byte-identical
// to the in-process run. CI runs this under -race.
func TestShardedMatchesUnsharded(t *testing.T) {
	var shapes []shape
	for _, shards := range []int{1, 2, 4, 8} {
		shapes = append(shapes, shape{fmt.Sprintf("shards %d", shards), []core.Option{core.WithShards(shards)}})
	}
	sets := requireMatches(t, func() *core.Runner { return newRunner(true) }, campaignSpecs(200), shapes)
	if sets[0].Dispatch != nil {
		t.Errorf("-shards 1 dispatched to a fleet: %+v", sets[0].Dispatch)
	}
	for i, set := range sets[1:] {
		if st := set.Dispatch; st == nil || st.Workers != []int{2, 4, 8}[i] || st.Degraded {
			t.Errorf("%s: dispatch stats %+v", shapes[i+1].name, st)
		}
	}
}

// TestShardedGeneratedCampaign runs the generated catalog sweep with
// paper-faithful skip probes on a fleet sized by WithShards: probes keep
// their positions and stay invisible to Progress, and the merged set
// deep-equals the in-process one.
func TestShardedGeneratedCampaign(t *testing.T) {
	generatedCampaign(t, core.WithShards(3), core.WithShardExecutor(NewFleet(FleetOptions{WorkerParallelism: 2})))
}

// generatedCampaign checks the probe and progress contract of a
// dispatched generated campaign: serialized, strictly +1, probes
// excluded, ending at (total, total).
func generatedCampaign(t *testing.T, exec ...core.Option) {
	t.Helper()
	base, err := core.NewCampaign(newRunner(false), core.WithPaperFaithfulSkips()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	var total int
	set, err := core.NewCampaign(newRunner(false), append(exec,
		core.WithPaperFaithfulSkips(),
		core.WithProgress(func(done, n int) {
			calls = append(calls, done)
			total = n
		}))...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	set.Dispatch = nil // provenance, outside the archive
	if !reflect.DeepEqual(base, set) {
		t.Fatal("dispatched generated campaign diverges from the in-process run")
	}
	if len(calls) != total || total == 0 || total == len(set.Runs) {
		t.Fatalf("%d progress calls, total %d, %d runs (probes must not count)",
			len(calls), total, len(set.Runs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress call %d reported done=%d; counter must increase strictly by one", i, done)
		}
	}
}

// TestWorkerDeathRedispatch: the death drill on a fleet sized by
// WithShards(2).
func TestWorkerDeathRedispatch(t *testing.T) {
	deathRedispatch(t, FleetOptions{}, core.WithShards(2))
}

// TestWorkerErrorRecordIsFatal: the error-record drill on a fleet sized
// by WithShards(2), with a worker that reads its chunk before failing.
func TestWorkerErrorRecordIsFatal(t *testing.T) {
	errorRecordIsFatal(t, FleetOptions{}, true, core.WithShards(2))
}

// TestWorkerPrematureDoneRedispatches: a done record with runs still
// open means the worker quit early. The fleet treats that as a death:
// the chunk is re-dispatched and the archive still matches.
func TestWorkerPrematureDoneRedispatches(t *testing.T) {
	var spawned atomic.Int32
	quitter := fakeSpawner(func(in io.Reader, out io.Writer, _ <-chan struct{}) {
		go io.Copy(io.Discard, in)
		io.WriteString(out, `{"kind":"done","index":0}`+"\n")
	})
	f := NewFleet(FleetOptions{Spawn: firstThen(quitter, &spawned), RedispatchBackoff: time.Millisecond})
	sets := requireMatches(t, func() *core.Runner { return newRunner(true) }, campaignSpecs(12),
		[]shape{{"premature done", []core.Option{core.WithShards(2), core.WithShardExecutor(f)}}})
	if st := sets[0].Dispatch; st.WorkerDeaths != 1 || st.Degraded {
		t.Errorf("premature done: dispatch stats %+v, want one death and no degradation", st)
	}
}

// TestStallDetectionRespawns: a worker that accepts its assignment and
// then goes silent — no records, no heartbeats — is killed at the stall
// deadline and its chunk re-dispatched to a respawned worker. One slot,
// so no sibling can speculate the chunk away first.
func TestStallDetectionRespawns(t *testing.T) {
	var spawned atomic.Int32
	silent := fakeSpawner(func(in io.Reader, out io.Writer, killed <-chan struct{}) {
		io.Copy(io.Discard, in)
		<-killed
	})
	f := NewFleet(FleetOptions{
		Spawn:             firstThen(silent, &spawned),
		StallDeadline:     50 * time.Millisecond,
		Heartbeat:         10 * time.Millisecond,
		RedispatchBackoff: time.Millisecond,
	})
	sets := requireMatches(t, func() *core.Runner { return newRunner(true) }, campaignSpecs(20),
		[]shape{{"silent worker", []core.Option{core.WithShards(1), core.WithShardExecutor(f)}}})
	if n := spawned.Load(); n != 2 {
		t.Fatalf("%d workers spawned, want 2 (1 slot + 1 stall respawn)", n)
	}
	if st := sets[0].Dispatch; st.WorkerDeaths != 1 || st.Redispatched < 1 || st.Degraded {
		t.Errorf("silent worker: dispatch stats %+v", st)
	}
}

// TestRespawnBudgetExhausted: on a fleet sized by WithShards(2) whose
// workers keep dying, exhausting MaxRespawns ends in degraded
// completion, not an error.
func TestRespawnBudgetExhausted(t *testing.T) {
	degradedCompletion(t, FleetOptions{MaxRespawns: 1}, core.WithShards(2))
}

// TestShardedCancellation: the cancellation contract on the registered
// fleet, engaged by WithShards(2) alone.
func TestShardedCancellation(t *testing.T) {
	cancellation(t, core.WithShards(2))
}

// TestShardingRejectsSupervision: dispatch and supervision are mutually
// exclusive by design, however the executor is engaged; the conflict
// must be a clear error, not a hang.
func TestShardingRejectsSupervision(t *testing.T) {
	for name, exec := range map[string]core.Option{
		"WithShards":        core.WithShards(2),
		"WithShardExecutor": core.WithShardExecutor(NewFleet(FleetOptions{Workers: 1})),
	} {
		_, err := core.NewCampaign(newRunner(false),
			core.WithSpecs(campaignSpecs(4)),
			exec,
			core.WithSupervision(core.NewSupervisor(core.SupervisorOptions{MaxAttempts: 1})),
		).Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
			t.Errorf("%s: error = %v, want the sharding/supervision conflict", name, err)
		}
	}
}

// TestOverlongLineIsWorkerDeath: a worker that streams a line past the
// journal reader's 64 MiB cap is treated like a dead one — the
// coordinator never buffers the line whole, the chunk is re-dispatched,
// and the archive still matches the in-process run. One slot, so no
// sibling can speculate the chunk away before the cap trips.
func TestOverlongLineIsWorkerDeath(t *testing.T) {
	var spawned atomic.Int32
	flood := fakeSpawner(func(in io.Reader, out io.Writer, killed <-chan struct{}) {
		go io.Copy(io.Discard, in)
		block := bytes.Repeat([]byte("x"), 1<<20)
		io.WriteString(out, `{"kind":"heartbeat","pad":"`)
		for i := 0; i < 65; i++ { // 65 MiB, one past the cap
			if _, err := out.Write(block); err != nil {
				return // the coordinator gave up on the line
			}
		}
		<-killed
	})
	f := NewFleet(FleetOptions{Spawn: firstThen(flood, &spawned), RedispatchBackoff: time.Millisecond})
	sets := requireMatches(t, func() *core.Runner { return newRunner(true) }, campaignSpecs(12),
		[]shape{{"over-cap line", []core.Option{core.WithShardExecutor(f)}}})
	if st := sets[0].Dispatch; st.WorkerDeaths != 1 || st.Degraded {
		t.Errorf("over-cap line: dispatch stats %+v, want one death and no degradation", st)
	}
}
