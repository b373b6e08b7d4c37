package main

// Campaign supervision in the CLI: the -journal/-resume/-run-deadline/
// -max-quarantined/-retries/-chaos flag family, SIGINT/SIGTERM handling
// that flushes the journal and prints the exact resume command, and the
// distinct exit codes automation keys on.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"ntdts/internal/config"
	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/journal"
	"ntdts/internal/report"
	"ntdts/internal/shard"
	"ntdts/internal/workload"
)

// Exit codes beyond the generic 1: automation around long campaigns
// distinguishes "interrupted, resume me" from "degraded past the
// quarantine budget, inspect me".
const (
	exitInterrupted      = 3
	exitQuarantineBudget = 4
	// exitDegraded: a -workers/-shards fleet campaign completed — results are
	// full and byte-identical — but only by falling back to in-process
	// execution after every worker budget was exhausted.
	exitDegraded = 5
)

// exitError carries a specific process exit code out of run().
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

// superviseFlags carries the supervisor flag family.
type superviseFlags struct {
	journal        string
	runDeadline    time.Duration // wall-clock watchdog per attempt
	maxQuarantined int
	retries        int
	chaos          bool
}

// active reports whether any supervision was requested. The retry count
// alone does not activate the supervisor: retries only matter once a
// watchdog, journal, quarantine budget or chaos hook is in play.
func (s superviseFlags) active() bool {
	return s.journal != "" || s.runDeadline > 0 || s.maxQuarantined > 0 || s.chaos
}

// options translates the flags into the supervisor policy.
func (s superviseFlags) options() core.SupervisorOptions {
	return core.SupervisorOptions{
		WallDeadline:   s.runDeadline,
		MaxAttempts:    s.retries + 1,
		MaxQuarantined: s.maxQuarantined,
		Chaos:          s.chaos,
	}
}

// journalHeader records everything a resume needs to rebuild this
// campaign from the journal alone.
func journalHeader(cfg config.Main, def workload.Definition, opts core.RunnerOptions, tflags telemetryFlags, sflags superviseFlags) journal.Header {
	h := journal.Header{
		Workload:          def.Name,
		Supervision:       def.Supervision.String(),
		ServerUpTimeoutNS: int64(opts.ServerUpTimeout),
		RunDeadlineNS:     int64(opts.RunDeadline),
		Telemetry:         opts.Telemetry.Enabled,
		TraceCapacity:     opts.Telemetry.TraceCap,
		FreshBoot:         opts.FreshBoot,
		FaultList:         cfg.FaultList,
		WallDeadlineNS:    int64(sflags.runDeadline),
		MaxAttempts:       sflags.retries + 1,
		MaxQuarantined:    sflags.maxQuarantined,
		Chaos:             sflags.chaos,
	}
	if def.Supervision == workload.Watchd {
		h.WatchdVersion = int(opts.WatchdVersion)
	}
	h.Cohort = def.Cohort
	h.WorkloadTrace = def.WorkloadTrace
	h.ClusterNodes = opts.Cluster.Nodes
	h.ClusterRouting = opts.Cluster.Routing
	return h
}

// resumeCommand renders the exact command that continues an interrupted
// campaign — printed on interrupt so the operator can paste it.
func resumeCommand(jpath, outPath string, parallel int, tflags telemetryFlags) string {
	var b strings.Builder
	b.WriteString("dts -resume ")
	b.WriteString(jpath)
	if parallel != 0 {
		fmt.Fprintf(&b, " -parallel %d", parallel)
	}
	if outPath != "" {
		b.WriteString(" -out ")
		b.WriteString(outPath)
	}
	if tflags.traceOut != "" {
		b.WriteString(" -trace-out ")
		b.WriteString(tflags.traceOut)
	}
	if tflags.metrics {
		b.WriteString(" -metrics")
	}
	return b.String()
}

// finishSupervised is the single exit path of every supervised (and
// unsupervised configured) campaign: flush and close the journal, map
// supervisor stop causes to their exit codes, render the quarantine
// report, emit telemetry, and save the archive.
func finishSupervised(set *core.SetResult, runErr error, savePath string, sup *core.Supervisor, resumeHint string, tflags telemetryFlags, out io.Writer) error {
	var jw *journal.Writer
	if sup != nil {
		jw = sup.Journal()
	}
	if jw != nil {
		defer jw.Close()
		if err := jw.Sync(); err != nil && runErr == nil {
			return err
		}
	}
	if runErr != nil {
		var budget *core.QuarantineBudgetError
		switch {
		case errors.Is(runErr, core.ErrInterrupted):
			if jw != nil {
				fmt.Fprintf(out, "\ninterrupted: %d runs journaled to %s\nresume with:\n  %s\n",
					jw.Records(), jw.Path(), resumeHint)
			} else {
				fmt.Fprintf(out, "\ninterrupted (no -journal: progress lost)\n")
			}
			return &exitError{code: exitInterrupted, msg: "campaign interrupted"}
		case errors.As(runErr, &budget):
			if set != nil {
				printSetSummary(set, out)
				fmt.Fprint(out, "\n", report.Quarantine(set.Quarantined))
				if err := tflags.emit(set.Telemetry, out); err != nil {
					return err
				}
				if err := saveSet(set, savePath); err != nil {
					return err
				}
				fmt.Fprintf(out, "\npartial results: campaign stopped, %s\n", runErr)
			}
			return &exitError{code: exitQuarantineBudget, msg: runErr.Error()}
		default:
			return runErr
		}
	}
	printSetSummary(set, out)
	if len(set.Quarantined) != 0 {
		fmt.Fprint(out, "\n", report.Quarantine(set.Quarantined))
	}
	if err := tflags.emit(set.Telemetry, out); err != nil {
		return err
	}
	return saveSet(set, savePath)
}

// runResume continues an interrupted journaled campaign: replay the
// journal, truncate its torn tail, rebuild the runner from the header,
// and execute the remaining runs — completed runs replay from the
// journal, so the final results are byte-identical to an uninterrupted
// campaign at any -parallel setting.
func runResume(ctx context.Context, jpath, outPath string, parallel int, tflags telemetryFlags, progress func(string), out io.Writer) error {
	rep, err := journal.Replay(jpath)
	if err != nil {
		return err
	}
	h := rep.Header
	if h.Telemetry != tflags.options().Enabled {
		if h.Telemetry {
			return fmt.Errorf("journal %s collected telemetry; resume with -trace-out and/or -metrics", jpath)
		}
		return fmt.Errorf("journal %s collected no telemetry; -trace-out/-metrics cannot be added on resume", jpath)
	}
	sup, runner, err := resumeSupervisor(rep)
	if err != nil {
		return err
	}
	if rep.Torn {
		progress("discarded torn final journal record")
	}
	jw, err := journal.Append(jpath, rep.ValidBytes, rep.Records)
	if err != nil {
		return err
	}
	sup.AttachJournal(jw)
	progress(fmt.Sprintf("resuming %s/%s from %s: %d runs journaled",
		h.Workload, h.Supervision, jpath, rep.Records))

	copts := []core.Option{
		core.WithParallelism(parallel),
		core.WithProgress(campaignProgress(progress)),
		core.WithSupervision(sup),
	}
	if h.FaultList != "" {
		specs, serr := planSpecs(rep)
		if serr != nil {
			return serr
		}
		copts = append(copts, core.WithSpecs(specs))
	}
	set, err := core.NewCampaign(runner, copts...).Run(ctx)
	hint := resumeCommand(jpath, outPath, parallel, tflags)
	return finishSupervised(set, err, outPath, sup, hint, tflags, out)
}

// resumeSupervisor rebuilds the runner and supervisor a journal header
// describes. The runner half is shared with shard workers, which receive
// the same header as their assignment.
func resumeSupervisor(rep *journal.Replayed) (*core.Supervisor, *core.Runner, error) {
	h := rep.Header
	runner, err := shard.RunnerFromHeader(h)
	if err != nil {
		return nil, nil, err
	}
	sup := core.NewSupervisor(core.SupervisorOptions{
		WallDeadline:   time.Duration(h.WallDeadlineNS),
		MaxAttempts:    h.MaxAttempts,
		MaxQuarantined: h.MaxQuarantined,
		Chaos:          h.Chaos,
	})
	sup.LoadResume(rep)
	return sup, runner, nil
}

// planSpecs rebuilds a fault-list campaign's spec list from the
// journaled plan — the journal is self-contained; the original fault
// list file is not needed to resume.
func planSpecs(rep *journal.Replayed) ([]inject.FaultSpec, error) {
	if rep.Plan == nil {
		return nil, fmt.Errorf("journal %s has no plan record; nothing to resume — rerun the campaign", rep.Header.FaultList)
	}
	specs := make([]inject.FaultSpec, len(rep.Plan.Jobs))
	for i, key := range rep.Plan.Jobs {
		s, err := inject.ParseKey(strings.TrimSuffix(key, "/probe"))
		if err != nil {
			return nil, fmt.Errorf("journal plan job %d: %w", i, err)
		}
		specs[i] = s
	}
	return specs, nil
}
