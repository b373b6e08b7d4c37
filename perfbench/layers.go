package main

// The traced run: the workload's campaign driven in-process through the
// program's public APIs, plus fixed probes of the layers that campaign
// does not drive, all on the same seeded inputs. Every per-layer metric
// is computed from the recorded spans (and, for counts, from the
// program's deterministic telemetry counters).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"ntdts/internal/config"
	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/middleware"
	"ntdts/internal/ntsim"
	"ntdts/internal/replay"
	"ntdts/internal/shard"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

const (
	pairSpecs  = 600  // list prefix for the interleaved overhead pairs
	pairs      = 5    // interleaved with/without pairs per overhead metric
	fleetSpecs = 1000 // list prefix the fleet probe dispatches
	forkProbes = 200  // Fork → Release cycles timed
	repeatRead = 3    // repetitions of the journal/replay read probes
)

// layerRun carries the traced run's state.
type layerRun struct {
	e   *env
	tr  *tracer
	m   metricSet
	ctx context.Context
}

func (l *layerRun) put(name string, v float64) { l.m.put(perLayer, name, v) }

// runCounters accumulates the deterministic per-run telemetry counters.
type runCounters struct {
	runs, quanta, syscalls, faultRuns, activated atomic.Int64
}

func (c *runCounters) observe(res *core.RunResult) {
	c.runs.Add(1)
	if rec := res.Telemetry; rec != nil {
		c.quanta.Add(rec.Counter(telemetry.CtrSchedQuanta))
		c.syscalls.Add(rec.Counter(telemetry.CtrSyscalls))
	}
	if res.Fault.Function != "" && !res.Skipped {
		c.faultRuns.Add(1)
		if res.Activated {
			c.activated.Add(1)
		}
	}
	// The recorder is not needed past this point; dropping it keeps a
	// thousands-run campaign's memory flat.
	res.Telemetry = nil
}

// pool runs jobs on `workers` goroutines, each with its own Runner
// clone. Every run gets a run ID and a "job" span under parent holding
// a runName span around Runner.Run; after, when non-nil, runs inside the
// job span and may record further child spans.
func (l *layerRun) pool(parent int, runName string, r *core.Runner, jobs []core.PlanJob, workers int, after func(job, run, i int, res *core.RunResult) error) ([]core.RunResult, error) {
	results := make([]core.RunResult, len(jobs))
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc := r.Clone()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				spec := jobs[i].Spec
				run := l.tr.newRun()
				job := l.tr.start("job", parent, run)
				var res *core.RunResult
				err := l.tr.timed(runName, job, run, func() (err error) {
					res, err = rc.Run(&spec)
					return err
				})
				if err == nil {
					if jobs[i].Probe {
						res.Skipped = true
					}
					if after != nil {
						err = after(job, run, i, res)
					}
				}
				l.tr.end(job)
				if err != nil {
					errs[w] = fmt.Errorf("run %s: %w", jobs[i].Key(), err)
					failed.Store(true)
					return
				}
				results[i] = *res
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// campaignResult is the traced workload campaign's outcome.
type campaignResult struct {
	archive []byte
	runs    int
	wall    time.Duration
}

// tracedCampaign runs the workload's campaign in-process (see
// benchWorkload.traced) with telemetry counters on.
func (l *layerRun) tracedCampaign(w *benchWorkload) (*campaignResult, error) {
	var ctr runCounters
	gcBefore := readGoMetrics()
	start := time.Now()
	root := l.tr.start("campaign", 0, 0)
	opts := core.DefaultRunnerOptions()
	opts.Telemetry = telemetry.Options{Enabled: true}
	var defs []workload.Definition
	var specs []inject.FaultSpec
	switch w.traced {
	case "figure2":
		for _, sv := range experiments.Supervisions() {
			defs = append(defs, workload.StandardSet(sv)...)
		}
	case "cluster":
		defs = []workload.Definition{workload.NewIIS(workload.MSCS)}
		opts.Cluster = core.ClusterConfig{Nodes: 3}
	default:
		defs = []workload.Definition{workload.NewIIS(workload.Watchd)}
		specs = l.e.specs
	}
	var sets []*core.SetResult
	busy := time.Duration(0)
	runPhase := time.Duration(0)
	for _, def := range defs {
		var copts []core.Option
		if specs != nil {
			copts = append(copts, core.WithSpecs(specs))
		}
		c := core.NewCampaign(core.NewRunner(def, opts), copts...)
		var p *core.Prepared
		if err := l.tr.timed("core.prepare", root, 0, func() (err error) { p, err = c.Prepare(); return err }); err != nil {
			return nil, err
		}
		phaseStart := time.Now()
		before := l.tr.total("core.run")
		runs, err := l.pool(root, "core.run", c.Runner(), p.Jobs, l.e.nproc, func(_, _, _ int, res *core.RunResult) error {
			ctr.observe(res)
			return nil
		})
		if err != nil {
			return nil, err
		}
		runPhase += time.Since(phaseStart)
		busy += l.tr.total("core.run") - before
		set, err := p.Assemble(runs, nil)
		if err != nil {
			return nil, err
		}
		set.Telemetry = nil
		sets = append(sets, set)
	}
	a := &experiments.Archive{Kind: "set", Set: sets[0]}
	if w.traced == "figure2" {
		a = &experiments.Archive{Kind: "figure2", Experiment: &core.Experiment{Sets: sets}}
	}
	var buf bytes.Buffer
	for i := 0; i < repeatRead; i++ {
		buf.Reset()
		if err := l.tr.timed("experiments.save", root, 0, func() error { return a.Save(&buf) }); err != nil {
			return nil, err
		}
	}
	l.tr.end(root)
	wall := time.Since(start)
	gcAfter := readGoMetrics()

	runs := float64(ctr.runs.Load())
	runNS := float64(l.tr.total("core.run"))
	l.put("core.run_us.p50", quantile(in(l.tr.durations("core.run"), time.Microsecond), 0.50))
	l.put("core.run_us.p99", quantile(in(l.tr.durations("core.run"), time.Microsecond), 0.99))
	l.put("core.pool_busy_frac", float64(busy)/(float64(l.e.nproc)*float64(runPhase)))
	l.put("ntsim.quanta_per_run", float64(ctr.quanta.Load())/runs)
	l.put("ntsim.ns_per_quantum", runNS/float64(ctr.quanta.Load()))
	l.put("win32.syscalls_per_run", float64(ctr.syscalls.Load())/runs)
	l.put("inject.activated_frac", float64(ctr.activated.Load())/float64(ctr.faultRuns.Load()))
	l.put("experiments.save_ms", median(in(l.tr.durations("experiments.save"), time.Millisecond)))
	l.put("go.alloc_kb_per_run", (gcAfter.allocBytes-gcBefore.allocBytes)/1024/runs)
	l.put("go.gc_cpu_frac", (gcAfter.gcCPU-gcBefore.gcCPU)/(gcAfter.totalCPU-gcBefore.totalCPU))
	return &campaignResult{archive: append([]byte(nil), buf.Bytes()...), runs: int(runs), wall: wall}, nil
}

// goMetrics is a runtime/metrics sample.
type goMetrics struct{ allocBytes, gcCPU, totalCPU float64 }

func readGoMetrics() goMetrics {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goMetrics{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// runner builds the runner dts -config builds for the named config
// file in the working directory (telemetry off).
func (e *env) runner(cfgName string) (*core.Runner, error) {
	f, err := os.Open(e.path(cfgName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := config.ParseMain(f)
	if err != nil {
		return nil, err
	}
	def, err := cfg.Definition()
	if err != nil {
		return nil, err
	}
	opts := core.DefaultRunnerOptions()
	opts.ServerUpTimeout = cfg.ServerUpTimeout
	opts.RunDeadline = cfg.RunDeadline
	opts.WatchdVersion = cfg.WatchdVersion
	return core.NewRunner(def, opts), nil
}

// journalHeader is the header a fault-list campaign journal carries.
func journalHeader(r *core.Runner) journal.Header {
	h := shard.HeaderFor(r)
	h.FaultList = "faults.lst"
	h.MaxAttempts = 3
	return h
}

// journalProbe records the IIS/none list campaign into a journal the way
// the supervisor does — one WriteRun per completed run on the
// campaign's MarshalRunRecord output, a Sync every checkpoint interval —
// and returns the journal path. It is also the replay probe's source.
func (l *layerRun) journalProbe() (string, error) {
	path := l.e.path("traced-src.journal")
	r, err := l.e.runner("none.cfg")
	if err != nil {
		return "", err
	}
	root := l.tr.start("journal.campaign", 0, 0)
	defer l.tr.end(root)
	c := core.NewCampaign(r, core.WithSpecs(l.e.specs))
	var p *core.Prepared
	if err := l.tr.timed("core.prepare", root, 0, func() (err error) { p, err = c.Prepare(); return err }); err != nil {
		return "", err
	}
	jw, err := journal.Create(path, journalHeader(r))
	if err != nil {
		return "", err
	}
	defer jw.Close()
	if err := jw.WritePlan(core.JobKeys(p.Jobs), core.PlanFingerprint(p.Jobs)); err != nil {
		return "", err
	}
	var written atomic.Int64
	_, err = l.pool(root, "core.run", r, p.Jobs, l.e.nproc, func(job, run, i int, res *core.RunResult) error {
		result, tel, err := core.MarshalRunRecord(res)
		if err != nil {
			return err
		}
		if err := l.tr.timed("journal.write", job, run, func() error {
			return jw.WriteRun(i, p.Jobs[i].Key(), 1, result, tel)
		}); err != nil {
			return err
		}
		if written.Add(1)%journal.CheckpointEvery == 0 {
			return l.tr.timed("journal.sync", job, run, jw.Sync)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if err := l.tr.timed("journal.sync", root, 0, jw.Sync); err != nil {
		return "", err
	}
	if err := jw.Close(); err != nil {
		return "", err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	l.put("journal.write_us", median(in(l.tr.durations("journal.write"), time.Microsecond)))
	l.put("journal.sync_ms", median(in(l.tr.durations("journal.sync"), time.Millisecond)))
	l.put("journal.bytes_per_run", float64(st.Size())/float64(len(p.Jobs)))
	for i := 0; i < repeatRead; i++ {
		if err := l.tr.timed("journal.replay", 0, 0, func() error {
			_, err := journal.Replay(path)
			return err
		}); err != nil {
			return "", err
		}
	}
	l.put("journal.replay_ms", median(in(l.tr.durations("journal.replay"), time.Millisecond)))
	return path, nil
}

// replayProbe loads the recorded IIS/none journal as a replay source,
// builds the watchd-v3 replay and resolves it through the divergence
// oracle (without executing the non-elided runs).
func (l *layerRun) replayProbe(path string) error {
	var src *replay.Source
	for i := 0; i < repeatRead; i++ {
		if err := l.tr.timed("replay.load", 0, 0, func() (err error) { src, err = replay.Load(path); return err }); err != nil {
			return err
		}
	}
	target, err := middleware.Parse("watchd-v3")
	if err != nil {
		return err
	}
	c, oracle, err := replay.Build(src, replay.Options{Target: target, Parallelism: l.e.nproc})
	if err != nil {
		return err
	}
	var p *core.Prepared
	if err := l.tr.timed("replay.prepare", 0, 0, func() (err error) { p, err = c.Prepare(); return err }); err != nil {
		return err
	}
	for i := 0; i < repeatRead; i++ {
		if err := l.tr.timed("replay.resolve", 0, 0, func() error {
			_, err := oracle.Resolve(p)
			return err
		}); err != nil {
			return err
		}
	}
	st := oracle.Stats()
	if st.Total != listRuns || st.Elided+st.Executed != st.Total {
		return fmt.Errorf("replay oracle: %d elided + %d executed of %d, want %d total", st.Elided, st.Executed, st.Total, listRuns)
	}
	l.put("replay.load_ms", median(in(l.tr.durations("replay.load"), time.Millisecond)))
	l.put("replay.resolve_ms", median(in(l.tr.durations("replay.resolve"), time.Millisecond)))
	l.put("replay.elision_rate", st.Rate())
	return nil
}

// prepareProbe times Campaign.Prepare and the boot-prefix snapshot for
// each of the paper's twelve sets, and PrefixSnapshot.Fork → Release.
func (l *layerRun) prepareProbe() error {
	var defs []workload.Definition
	for _, sv := range experiments.Supervisions() {
		defs = append(defs, workload.StandardSet(sv)...)
	}
	var snap *ntsim.PrefixSnapshot
	for _, def := range defs {
		c := core.NewCampaign(core.NewRunner(def, core.RunnerOptions{}))
		if err := l.tr.timed("core.prepare", 0, 0, func() error { _, err := c.Prepare(); return err }); err != nil {
			return err
		}
		if err := l.tr.timed("ntsim.snapshot", 0, 0, func() (err error) {
			k := ntsim.NewKernel()
			def.Setup(k)
			snap, err = k.SnapshotPrefix()
			return err
		}); err != nil {
			return err
		}
	}
	for i := 0; i < forkProbes; i++ {
		id := l.tr.start("ntsim.fork", 0, 0)
		k := snap.Fork()
		released := k.Release()
		l.tr.end(id)
		if !released {
			return errors.New("ntsim: a fresh fork refused Release")
		}
	}
	l.put("core.prepare_ms", median(in(l.tr.durations("core.prepare"), time.Millisecond)))
	l.put("ntsim.snapshot_ms", median(in(l.tr.durations("ntsim.snapshot"), time.Millisecond)))
	l.put("ntsim.fork_us", median(in(l.tr.durations("ntsim.fork"), time.Microsecond)))
	return nil
}

// overheadPairs times RunSpecsSupervised with a journal attached against
// RunSpecs, and Campaign.Run with telemetry recorders against without,
// in interleaved pairs whose order alternates, on a list prefix.
func (l *layerRun) overheadPairs() error {
	specs := l.e.specs[:pairSpecs]
	plain, err := l.e.runner("v3.cfg")
	if err != nil {
		return err
	}
	withTel := core.NewRunner(plain.Def, plain.Opts)
	withTel.Opts.Telemetry = telemetry.Options{Enabled: true}
	supervised := func() error {
		jw, err := journal.Create(l.e.path("pairs.journal"), journalHeader(plain))
		if err != nil {
			return err
		}
		defer jw.Close()
		sup := core.NewSupervisor(core.SupervisorOptions{MaxAttempts: 3})
		sup.AttachJournal(jw)
		if err := l.tr.timed("core.run_specs_supervised", 0, 0, func() error {
			_, err := core.RunSpecsSupervised(l.ctx, plain, specs, l.e.nproc, nil, sup)
			return err
		}); err != nil {
			return err
		}
		if err := jw.Sync(); err != nil {
			return err
		}
		return jw.Close()
	}
	unsupervised := func() error {
		return l.tr.timed("core.run_specs", 0, 0, func() error {
			_, err := core.RunSpecs(l.ctx, plain, specs, l.e.nproc, nil)
			return err
		})
	}
	campaign := func(r *core.Runner, name string) func() error {
		return func() error {
			c := core.NewCampaign(r, core.WithSpecs(specs), core.WithParallelism(l.e.nproc))
			return l.tr.timed(name, 0, 0, func() error { _, err := c.Run(l.ctx); return err })
		}
	}
	steps := [][2]func() error{
		{supervised, unsupervised},
		{campaign(withTel, "campaign.telemetry_on"), campaign(plain, "campaign.telemetry_off")},
	}
	for _, pair := range steps {
		for i := 0; i < pairs; i++ {
			a, b := pair[0], pair[1]
			if i%2 == 1 {
				a, b = b, a
			}
			if err := a(); err != nil {
				return err
			}
			if err := b(); err != nil {
				return err
			}
		}
	}
	// Per-pair ratios and differences cancel host-speed drift that a
	// ratio of two separately taken medians would keep.
	perPair := func(num, den string, f func(n, d time.Duration) float64) float64 {
		n, d := l.tr.durations(num), l.tr.durations(den)
		v := make([]float64, len(n))
		for i := range n {
			v[i] = f(n[i], d[i])
		}
		return median(v)
	}
	ratio := func(n, d time.Duration) float64 { return float64(n) / float64(d) }
	l.put("core.supervise_us_per_run", perPair("core.run_specs_supervised", "core.run_specs", func(n, d time.Duration) float64 {
		return float64(n-d) / float64(time.Microsecond) / float64(len(specs))
	}))
	l.put("core.supervise_overhead", perPair("core.run_specs_supervised", "core.run_specs", ratio))
	l.put("telemetry.overhead", perPair("campaign.telemetry_on", "campaign.telemetry_off", ratio))
	return nil
}

// clusterProbe runs the IIS/MSCS catalog plan on a 3-node cluster and
// the same kernel-fault specs on a single host.
func (l *layerRun) clusterProbe() error {
	def := workload.NewIIS(workload.MSCS)
	opts := core.DefaultRunnerOptions()
	opts.Cluster = core.ClusterConfig{Nodes: 3}
	cl := core.NewRunner(def, opts)
	var p *core.Prepared
	if err := l.tr.timed("core.prepare", 0, 0, func() (err error) {
		p, err = core.NewCampaign(cl).Prepare()
		return err
	}); err != nil {
		return err
	}
	root := l.tr.start("cluster.campaign", 0, 0)
	_, err := l.pool(root, "cluster.run", cl, p.Jobs, l.e.nproc, nil)
	l.tr.end(root)
	if err != nil {
		return err
	}
	root = l.tr.start("cluster.single_host", 0, 0)
	_, err = l.pool(root, "cluster.single_run", core.NewRunner(def, core.DefaultRunnerOptions()), p.Jobs, l.e.nproc, nil)
	l.tr.end(root)
	if err != nil {
		return err
	}
	runs := in(l.tr.durations("cluster.run"), time.Microsecond)
	l.put("cluster.run_us.p50", quantile(runs, 0.50))
	l.put("cluster.run_us.p99", quantile(runs, 0.99))
	l.put("cluster.cost_vs_single", float64(l.tr.total("cluster.run"))/float64(l.tr.total("cluster.single_run")))
	return nil
}

// shardProbe dispatches a list prefix over a work-stealing fleet of dts
// worker processes through a Spawner wrapper that times spawn and chunk
// round trips and captures the wire bytes.
func (l *layerRun) shardProbe() error {
	r, err := l.e.runner("v3.cfg")
	if err != nil {
		return err
	}
	wt := &wireTap{tr: l.tr}
	fleet := shard.NewFleet(shard.FleetOptions{
		Workers:           l.e.nproc,
		WorkerParallelism: 1,
		Spawn:             wt.spawner(shard.Exec(l.e.dts, "-shard-worker")),
	})
	specs := l.e.specs[:fleetSpecs]
	c := core.NewCampaign(r, core.WithSpecs(specs), core.WithShards(max(2, l.e.nproc)), core.WithShardExecutor(fleet))
	var set *core.SetResult
	if err := l.tr.timed("shard.fleet", 0, 0, func() (err error) { set, err = c.Run(l.ctx); return err }); err != nil {
		return err
	}
	st := set.Dispatch
	if st == nil || st.Degraded || len(set.Runs) != len(specs) {
		return fmt.Errorf("fleet probe: degraded or incomplete dispatch (%+v, %d runs)", st, len(set.Runs))
	}
	wire := wt.captured()
	lines := 0
	if err := l.tr.timed("journal.decode", 0, 0, func() error {
		s := journal.NewStream(bytes.NewReader(wire))
		for {
			_, err := s.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			lines++
		}
	}); err != nil {
		return fmt.Errorf("decode captured wire: %w", err)
	}
	rtt := in(l.tr.durations("shard.chunk"), time.Millisecond)
	l.put("shard.spawn_ms", median(in(l.tr.durations("shard.spawn"), time.Millisecond)))
	l.put("shard.chunk_rtt_ms.p50", quantile(rtt, 0.50))
	l.put("shard.chunk_rtt_ms.p99", quantile(rtt, 0.99))
	l.put("shard.wire_bytes_per_run", float64(len(wire))/float64(len(specs)))
	l.put("shard.speculated_frac", float64(st.Speculated)/float64(st.Chunks))
	l.put("journal.decode_us_per_line", float64(l.tr.total("journal.decode"))/float64(time.Microsecond)/float64(lines))
	return nil
}
