package main

// setup_s: host time before a workload's first fault run can start —
// config or journal load, calibration run, boot-prefix snapshot, plan,
// and for the fleet the worker spawns — summed over the workload's sets.
// Each sample runs in a fresh child process (this binary with
// -setup-probe) so it pays the same cold caches a dts process pays.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/experiments"
	"ntdts/internal/journal"
	"ntdts/internal/middleware"
	"ntdts/internal/replay"
	"ntdts/internal/shard"
	"ntdts/internal/workload"
)

const setupSamples = 11

// measureSetup runs setupSamples fresh probe processes and returns the
// median of their set-up times in seconds.
func measureSetup(e *env, w *benchWorkload) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < setupSamples; i++ {
		var out bytes.Buffer
		cmd := exec.Command(self, "-setup-probe", "-workload", w.name, "-dts", e.dts, "-dir", e.dir)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		var u usage
		if rerr := reapOrphans(&u, 30*time.Second); err == nil {
			err = rerr
		}
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe output %q: %w", out.String(), err)
		}
		secs = append(secs, v)
	}
	return median(secs), nil
}

// setupProbe performs the workload's set-up once, in this process, and
// returns how long it took. The inputs (and for replay-v3 the source
// journal) already exist in e.dir.
func setupProbe(e *env, w *benchWorkload) (time.Duration, error) {
	start := time.Now()
	switch w.name {
	case "paper-sweep":
		for _, sv := range experiments.Supervisions() {
			for _, def := range workload.StandardSet(sv) {
				if _, err := core.NewCampaign(core.NewRunner(def, core.RunnerOptions{})).Prepare(); err != nil {
					return 0, err
				}
			}
		}
	case "cluster-3node":
		r, err := e.runner("cluster.cfg")
		if err != nil {
			return 0, err
		}
		r.Opts.Cluster = core.ClusterConfig{Nodes: 3}
		if _, err := core.NewCampaign(r).Prepare(); err != nil {
			return 0, err
		}
	case "replay-v3":
		src, err := replay.Load(e.path("src.journal"))
		if err != nil {
			return 0, err
		}
		target, err := middleware.Parse("watchd-v3")
		if err != nil {
			return 0, err
		}
		c, _, err := replay.Build(src, replay.Options{Target: target, Parallelism: e.nproc})
		if err != nil {
			return 0, err
		}
		if _, err := c.Prepare(); err != nil {
			return 0, err
		}
	case "list-supervised", "list-fleet":
		r, err := e.runner("v3.cfg")
		if err != nil {
			return 0, err
		}
		specs, err := loadList(e.path("faults.lst"))
		if err != nil {
			return 0, err
		}
		jw, err := journal.Create(e.path("setup.journal"), journalHeader(r))
		if err != nil {
			return 0, err
		}
		defer jw.Close()
		p, err := core.NewCampaign(r, core.WithSpecs(specs)).Prepare()
		if err != nil {
			return 0, err
		}
		if err := jw.WritePlan(core.JobKeys(p.Jobs), core.PlanFingerprint(p.Jobs)); err != nil {
			return 0, err
		}
		if err := jw.Sync(); err != nil {
			return 0, err
		}
		if w.name == "list-fleet" {
			if err := spawnIdleWorkers(e, shard.HeaderFor(r)); err != nil {
				return 0, err
			}
		}
	default:
		return 0, fmt.Errorf("no set-up probe for %s", w.name)
	}
	return time.Since(start), nil
}

// spawnIdleWorkers starts e.nproc dts workers concurrently, as the fleet
// does, hands each the campaign header, and waits for each to answer
// with its closing record and exit.
func spawnIdleWorkers(e *env, h journal.Header) error {
	h.Kind, h.Version = journal.KindHeader, journal.Version
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	errs := make([]error, e.nproc)
	var wg sync.WaitGroup
	for i := 0; i < e.nproc; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := shard.Exec(e.dts, "-shard-worker")()
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := conn.In.Write(line); err != nil {
				errs[i] = err
			}
			conn.In.Close()
			if _, err := bufio.NewReader(conn.Out).ReadString('\n'); err != nil && errs[i] == nil {
				errs[i] = fmt.Errorf("worker sent no line: %w", err)
			}
			_, _ = io.Copy(io.Discard, conn.Out) // drain to EOF so Wait can reap
			if err := conn.Wait(); err != nil && errs[i] == nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("spawn worker: %w", err)
		}
	}
	return nil
}
