package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ntdts/internal/config"
)

// TestMain lets the test binary stand in for the perfbench binary when
// measureSetup re-executes it with -setup-probe.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-setup-probe" {
			os.Exit(run(os.Args[1:], os.Stdout))
		}
	}
	os.Exit(m.Run())
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func (d *metricDecl) UnmarshalJSON(data []byte) error {
	var raw struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	*d = metricDecl{Name: raw.Name, Unit: raw.Unit, Better: raw.Better, Bound: -1}
	if raw.Bound != nil {
		d.Bound = *raw.Bound
	}
	return nil
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

// TestMetricNames checks that every metric name and unit is valid and
// used once, and that BENCHMARK.json declares exactly the metrics and
// workloads this harness emits.
func TestMetricNames(t *testing.T) {
	b := loadBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(kind string, file, code []metricDecl, bounded bool) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(file), len(code))
		}
		for i, d := range file {
			if !metricName.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: invalid or duplicate metric name %q", kind, d.Name)
			}
			seen[d.Name] = true
			if !metricUnit.MatchString(d.Unit) {
				t.Errorf("%s: invalid unit %q", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if bounded != (d.Bound >= 0) || d.Bound > 0.25 {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
			if i < len(code) {
				want := code[i]
				if !bounded {
					want.Bound = -1
				}
				if d != want {
					t.Errorf("%s: BENCHMARK.json has %+v, the harness %+v", kind, d, want)
				}
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)

	setup := false
	for _, d := range b.EndToEnd {
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range b.EndToEnd {
				setup = setup && o.Bound <= d.Bound
			}
		}
	}
	if !setup {
		t.Error("setup_s must be declared in s, lower is better, with the largest bound")
	}

	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(ws))
	}
	for i, w := range b.Workloads {
		if w.Name != ws[i].name || w.Why != ws[i].why || seen[w.Name] || !metricName.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, ws[i].name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

// buildDTS compiles the repository's dts binary for the test.
func buildDTS(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds dts and runs campaigns")
	}
	bin := filepath.Join(t.TempDir(), "dts")
	cmd := exec.Command("go", "build", "-o", bin, "../cmd/dts")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build dts: %v\n%s", err, out)
	}
	return bin
}

// runHarness runs the benchmark in-process and decodes its last line.
func runHarness(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("perfbench %v exited %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestEveryMetricEmitted runs the cheapest workload end to end and
// traced, and checks that each mode emits exactly its declared metrics,
// with their units, on a correct run.
func TestEveryMetricEmitted(t *testing.T) {
	dts := buildDTS(t)
	work := t.TempDir()
	for trace, decls := range [][]metricDecl{endToEnd, perLayer} {
		res := runHarness(t, "-workload", "cluster-3node", "-seed", "7", "-seconds", "1",
			"-trace", fmt.Sprint(trace), "-dts", dts, "-work", work)
		if !res.Correct || res.Failed != 0 || res.Attempted < clusterRuns {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(decls) {
			t.Errorf("trace %d: %d metrics emitted, %d declared", trace, len(res.Metrics), len(decls))
		}
		for _, d := range decls {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s missing or in the wrong unit (%+v)", trace, d.Name, m)
			}
		}
	}
}

// TestFlippedByteFailsEveryRun checks the output oracle: a repetition
// whose archive differs from the reference in one byte counts all of its
// runs as failed, so failed_frac reaches 1.
func TestFlippedByteFailsEveryRun(t *testing.T) {
	dts := buildDTS(t)
	w, err := findWorkload("cluster-3node")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{dts: dts, dir: t.TempDir(), seed: 1, nproc: 2}
	if err := e.writeInputs(); err != nil {
		t.Fatal(err)
	}
	ref, err := makeReference(e, w)
	if err != nil {
		t.Fatal(err)
	}
	const at = 100
	flipper := filepath.Join(t.TempDir(), "dts-flip")
	script := fmt.Sprintf("#!/bin/sh\n%q \"$@\" || exit\nprintf '\\%03o' | dd of=out.json bs=1 seek=%d conv=notrunc status=none\n",
		dts, ref[at]^1, at)
	if err := os.WriteFile(flipper, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bin        string
		failedFrac float64
	}{{dts, 0}, {flipper, 1}} {
		e.dts = tc.bin
		rec := &record{}
		if _, _, _, err := timeRepetitions(e, w, time.Duration(0), ref, rec); err != nil {
			t.Fatal(err)
		}
		if got := float64(rec.Result.Failed) / float64(rec.Result.Attempted); got != tc.failedFrac {
			t.Errorf("%s: failed_frac = %v, want %v (problems: %v)", filepath.Base(tc.bin), got, tc.failedFrac, rec.Problems)
		}
	}
}

// TestListWorkloadsAgree runs the list-supervised, list-fleet and
// replay-v3 invocations on a short prefix of the seeded list and checks
// that their archives are byte-identical to each other and to the
// -parallel 1 reference.
func TestListWorkloadsAgree(t *testing.T) {
	dts := buildDTS(t)
	e := &env{dts: dts, dir: t.TempDir(), seed: 3, nproc: 2}
	if err := e.writeInputs(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(e.path("faults.lst"))
	if err != nil {
		t.Fatal(err)
	}
	if err := config.WriteFaultList(f, e.specs[:300]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, name := range []string{"list-supervised", "list-fleet", "replay-v3"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range append(w.reference(e), w.timed(e)) {
			if _, err := runCmd(e.dir, e.dts, args...); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		out, err := os.ReadFile(e.path("out.json"))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			if ref, err = os.ReadFile(e.path("ref.json")); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out, ref) {
			t.Errorf("%s archive differs from the list reference", name)
		}
	}
}

// TestSelfTime checks the self-time rule on overlapping children.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
	}
	self := map[string]time.Duration{}
	for _, lt := range selfTimes(spans) {
		self[lt.Name] = lt.Self
	}
	if self["job"] != 30 || self["a"] != 40 || self["b"] != 60 {
		t.Errorf("self times %v, want job 30, a 40, b 60", self)
	}
}

// TestPaperTables checks that the EXPERIMENTS.md parser finds both
// tables the paper-sweep oracle compares against.
func TestPaperTables(t *testing.T) {
	f, err := os.Open("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables, err := parseExperimentsMD(f)
	if err != nil {
		t.Fatal(err)
	}
	if tables.census["IIS"] != [3]int{76, 76, 70} || tables.failPct["Apache1"][2] != "0.0" {
		t.Errorf("parsed %v / %v", tables.census, tables.failPct)
	}
}
