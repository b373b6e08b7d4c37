// Command perfbench is the repository's benchmark. It times five dts
// campaign workloads end to end through the dts binary, checks every
// archive they write, and with -trace 1 drives the same inputs
// in-process through the program's public APIs to report per-layer
// costs. README.md describes the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds dts and
// this harness from source first:
//
//	bash perfbench/run.sh --workload list-fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ntdts/internal/config"
	"ntdts/internal/inject"
)

// result is the final stdout line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// record is the result file kept under the work directory.
type record struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Trace      bool        `json:"trace"`
	Seconds    int         `json:"seconds"`
	Provenance provenance  `json:"provenance"`
	Reps       []usage     `json:"reps,omitempty"`
	FailedFrac float64     `json:"failed_frac"`
	Problems   []string    `json:"problems,omitempty"`
	Layers     []layerTime `json:"layer_self_times,omitempty"`
	Result     result      `json:"result"`
}

// problem records and reports a correctness failure.
func (r *record) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Problems = append(r.Problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

// provenance stamps every result with the host and the code measured.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	DTSSHA256  string `json:"dts_sha256"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-sweep, list-supervised, list-fleet, replay-v3, cluster-3node")
	seed := fs.Int64("seed", 1, "input seed: permutes the 5193-spec fault list")
	seconds := fs.Int("seconds", 10, "measure for at least this long (end-to-end runs; at least 3 repetitions)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics through dts; 1: per-layer metrics from a traced in-process run")
	dts := fs.String("dts", ".bench_build/dts", "dts binary built from this checkout")
	work := fs.String("work", ".bench_build/work", "directory for inputs, outputs and result records")
	probe := fs.Bool("setup-probe", false, "internal: measure one set-up of -workload in -dir and print seconds")
	dir := fs.String("dir", "", "internal: -setup-probe input directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	dtsPath, err := filepath.Abs(*dts)
	if err != nil {
		return fail(err)
	}
	e := &env{dts: dtsPath, seed: *seed, nproc: runtime.NumCPU()}
	if *probe {
		e.dir = *dir
		d, err := setupProbe(e, w)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, d.Seconds())
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be >= 1"))
	}
	if _, err := os.Stat(dtsPath); err != nil {
		return fail(fmt.Errorf("dts binary: %w (build it with run.sh)", err))
	}
	if err := becomeSubreaper(); err != nil {
		return fail(err)
	}
	// Whatever path run takes, no process it started outlives it.
	defer func() { _ = reapOrphans(&usage{}, 30*time.Second) }()
	e.dir = filepath.Join(*work, "run")
	if err := os.RemoveAll(e.dir); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return fail(err)
	}
	if err := e.writeInputs(); err != nil {
		return fail(err)
	}
	rec := &record{Workload: w.name, Seed: *seed, Trace: *trace == 1, Seconds: *seconds, Provenance: stamp(dtsPath)}
	if *trace == 1 {
		err = traced(e, w, rec, filepath.Join(*work, "results", fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, *seed)))
	} else {
		err = measureEndToEnd(e, w, time.Duration(*seconds)*time.Second, rec)
	}
	if err != nil {
		return fail(err)
	}
	res := &rec.Result
	res.Correct = res.Failed == 0 && len(rec.Problems) == 0
	rec.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	if err := saveRecord(filepath.Join(*work, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)), rec); err != nil {
		return fail(err)
	}
	printSummary(stdout, rec)
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// measureEndToEnd makes the workload's reference in set-up, measures
// set-up time, then times repetitions of the workload's dts invocation.
func measureEndToEnd(e *env, w *benchWorkload, d time.Duration, rec *record) error {
	ref, err := makeReference(e, w)
	if err != nil {
		rec.problem("reference: %v", err)
		ref = nil // an invalid reference fails every repetition
	}
	setup, err := measureSetup(e, w)
	if err != nil {
		return err
	}
	rps, cpu, rss, err := timeRepetitions(e, w, d, ref, rec)
	if err != nil {
		return err
	}
	rec.Result.Metrics = metricSet{}
	m := rec.Result.Metrics
	m.put(endToEnd, "runs_per_s", median(rps))
	m.put(endToEnd, "setup_s", setup)
	m.put(endToEnd, "cpu_s_per_krun", median(cpu))
	m.put(endToEnd, "peak_rss_mb", median(rss))
	return nil
}

// makeReference runs the workload's set-up invocations and returns the
// validated reference archive.
func makeReference(e *env, w *benchWorkload) ([]byte, error) {
	for _, args := range w.reference(e) {
		if _, err := runCmd(e.dir, e.dts, args...); err != nil {
			return nil, err
		}
	}
	ref, err := os.ReadFile(e.path("ref.json"))
	if err != nil {
		return nil, err
	}
	return ref, checkReference(w, ref, "EXPERIMENTS.md")
}

// timeRepetitions repeats the workload's timed dts invocation for at
// least d and at least three times, and returns per-repetition runs/s,
// CPU-s per 1000 runs and peak RSS in MB. Every repetition's archive is
// checked against ref (nil: no valid reference, so every run fails);
// a failed check or a non-zero exit fails all runs of the repetition.
func timeRepetitions(e *env, w *benchWorkload, d time.Duration, ref []byte, rec *record) (rps, cpu, rss []float64, err error) {
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start) < d; rep++ {
		for _, f := range []string{"out.json", "run.journal", "run.journal.ckpt"} {
			if err := os.Remove(e.path(f)); err != nil && !os.IsNotExist(err) {
				return nil, nil, nil, err
			}
		}
		u, err := runCmd(e.dir, e.dts, w.timed(e)...)
		rec.Reps = append(rec.Reps, u)
		rps = append(rps, float64(w.runs)/u.Wall.Seconds())
		cpu = append(cpu, u.CPU.Seconds()/float64(w.runs)*1000)
		rss = append(rss, float64(u.MaxRSS)/1024)
		rec.Result.Attempted += w.runs
		if err == nil && ref == nil {
			err = fmt.Errorf("no valid reference to check against")
		}
		if err == nil {
			err = checkArchive(e.path("out.json"), ref)
		}
		if err != nil {
			rec.Result.Failed += w.runs
			rec.problem("repetition %d: %v", rep+1, err)
		}
	}
	return rps, cpu, rss, nil
}

// checkArchive compares a repetition's archive with the reference byte
// for byte: any difference fails every run of the repetition.
func checkArchive(path string, ref []byte) error {
	out, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, ref) {
		return fmt.Errorf("%s differs from the reference archive", filepath.Base(path))
	}
	return nil
}

// traced runs the workload's untraced invocation once, its campaign
// in-process with spans, and the layer probes; it writes the spans to
// spansPath.
func traced(e *env, w *benchWorkload, rec *record, spansPath string) error {
	l := &layerRun{e: e, tr: newTracer(), m: metricSet{}, ctx: context.Background()}
	u, untracedErr := runCmd(e.dir, e.dts, w.untraced(e)...)
	rec.Reps = append(rec.Reps, u)
	camp, err := l.tracedCampaign(w)
	if err != nil {
		return err
	}
	if untracedErr == nil {
		untracedErr = checkArchive(e.path("out.json"), camp.archive)
	}
	rec.Result.Attempted = camp.runs + w.runs
	if untracedErr != nil {
		rec.Result.Failed = rec.Result.Attempted
		rec.problem("traced campaign vs untraced dts: %v", untracedErr)
	}
	l.put("bench.trace_overhead", camp.wall.Seconds()/u.Wall.Seconds())
	src, err := l.journalProbe()
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"replay", func() error { return l.replayProbe(src) }},
		{"prepare", l.prepareProbe},
		{"overhead pairs", l.overheadPairs},
		{"cluster", l.clusterProbe},
		{"shard", l.shardProbe},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	var orphans usage
	if err := reapOrphans(&orphans, 30*time.Second); err != nil {
		return err
	}
	spans := l.tr.snapshot()
	rec.Layers = selfTimes(spans)
	rec.Result.Metrics = l.m
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return err
	}
	f, err := os.Create(spansPath)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadList parses a fault-list file.
func loadList(path string) ([]inject.FaultSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return config.ParseFaultList(f)
}

func stamp(dtsPath string) provenance {
	p := provenance{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not a git checkout)",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile(dtsPath); err == nil {
		sum := sha256.Sum256(data)
		p.DTSSHA256 = hex.EncodeToString(sum[:])
	}
	return p
}

func saveRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSummary prints the human-readable report that precedes the
// result line.
func printSummary(w io.Writer, rec *record) {
	mode := "end-to-end through dts, telemetry off"
	decls := endToEnd
	if rec.Trace {
		mode = "traced in-process run"
		decls = perLayer
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s), %d dts invocation(s)\n", rec.Workload, rec.Seed, mode, len(rec.Reps))
	pj, _ := json.Marshal(rec.Provenance)
	fmt.Fprintf(w, "provenance %s\n", pj)
	for _, d := range decls {
		m := rec.Result.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-28s %14.4f ratio (%d of %d runs failed)\n", "failed_frac", rec.FailedFrac, rec.Result.Failed, rec.Result.Attempted)
	if len(rec.Layers) > 0 {
		fmt.Fprintln(w, "span self time (top 12):")
		for i, lt := range rec.Layers {
			if i == 12 {
				break
			}
			fmt.Fprintf(w, "  %-28s %7d spans %10.1f ms total %10.1f ms self\n", lt.Name, lt.Count,
				float64(lt.Total)/float64(time.Millisecond), float64(lt.Self)/float64(time.Millisecond))
		}
	}
}
