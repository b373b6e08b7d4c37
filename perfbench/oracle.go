package main

// Output oracles. Every timed archive must be byte-identical to the
// -parallel 1 reference made in set-up; the list-supervised, list-fleet
// and replay-v3 references are one campaign (IIS/watchd-v3 over the
// seeded list), so those three workloads' archives are also identical
// to each other. The paper-sweep reference must reproduce the Table 1
// census and Figure 2 failure percentages recorded in EXPERIMENTS.md.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"ntdts/internal/core"
	"ntdts/internal/experiments"
)

// archiveSets returns the workload sets an archive holds.
func archiveSets(a *experiments.Archive) []*core.SetResult {
	switch {
	case a.Set != nil:
		return []*core.SetResult{a.Set}
	case a.Experiment != nil:
		return a.Experiment.Sets
	}
	return nil
}

// checkReference validates a reference archive: it parses, holds the
// stated number of runs with none quarantined, and (for Figure 2)
// matches the EXPERIMENTS.md at mdPath.
func checkReference(w *benchWorkload, ref []byte, mdPath string) error {
	a, err := experiments.LoadArchive(bytes.NewReader(ref))
	if err != nil {
		return fmt.Errorf("reference archive: %w", err)
	}
	n := 0
	for _, s := range archiveSets(a) {
		n += len(s.Runs)
		if len(s.Quarantined) != 0 {
			return fmt.Errorf("reference %s/%s quarantined %d runs", s.Workload, s.Supervision, len(s.Quarantined))
		}
	}
	if n != w.runs {
		return fmt.Errorf("reference archive holds %d runs, want %d", n, w.runs)
	}
	if a.Kind != "figure2" {
		return nil
	}
	md, err := os.Open(mdPath)
	if err != nil {
		return err
	}
	defer md.Close()
	return checkPaperResults(a, md)
}

// paperTables holds EXPERIMENTS.md's Table 1 census and Figure 2
// failure percentages, keyed by workload then supervision column
// (none, MSCS, watchd).
type paperTables struct {
	census  map[string][3]int
	failPct map[string][3]string
}

var pctCell = regexp.MustCompile(`([0-9]+\.[0-9])%`)

// parseExperimentsMD extracts the two tables from EXPERIMENTS.md.
func parseExperimentsMD(r io.Reader) (*paperTables, error) {
	t := &paperTables{census: map[string][3]int{}, failPct: map[string][3]string{}}
	section := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			section = ""
			if f := strings.Fields(line[3:]); len(f) >= 2 {
				section = f[0] + " " + f[1]
			}
			continue
		}
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) < 4 {
			continue
		}
		name := strings.TrimSpace(cells[0])
		if !isPaperWorkload(name) {
			continue
		}
		switch section {
		case "Table 1":
			var row [3]int
			for i := 0; i < 3; i++ {
				v, err := strconv.Atoi(strings.TrimSpace(cells[i+1]))
				if err != nil {
					return nil, fmt.Errorf("EXPERIMENTS.md Table 1 %s: %w", name, err)
				}
				row[i] = v
			}
			t.census[name] = row
		case "Figure 2":
			var row [3]string
			for i := 0; i < 3; i++ {
				m := pctCell.FindStringSubmatch(cells[i+1])
				if m == nil {
					return nil, fmt.Errorf("EXPERIMENTS.md Figure 2 %s: no percentage in %q", name, cells[i+1])
				}
				row[i] = m[1]
			}
			t.failPct[name] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.census) != 4 || len(t.failPct) != 4 {
		return nil, fmt.Errorf("EXPERIMENTS.md: found %d Table 1 rows and %d Figure 2 rows, want 4 each", len(t.census), len(t.failPct))
	}
	return t, nil
}

func isPaperWorkload(name string) bool {
	switch name {
	case "Apache1", "Apache2", "IIS", "SQL":
		return true
	}
	return false
}

// checkPaperResults compares a Figure 2 archive with EXPERIMENTS.md.
func checkPaperResults(a *experiments.Archive, md io.Reader) error {
	t, err := parseExperimentsMD(md)
	if err != nil {
		return err
	}
	if a.Experiment == nil || len(a.Experiment.Sets) != 12 {
		return fmt.Errorf("figure2 archive: want 12 sets")
	}
	for col, sv := range experiments.Supervisions() {
		for wl, want := range t.census {
			set, ok := a.Experiment.Find(wl, sv.String())
			if !ok {
				return fmt.Errorf("figure2 archive: no %s/%s set", wl, sv)
			}
			if set.ActivatedFns != want[col] {
				return fmt.Errorf("Table 1 %s/%s: %d activated functions, EXPERIMENTS.md says %d", wl, sv, set.ActivatedFns, want[col])
			}
			if got := fmt.Sprintf("%.1f", set.FailurePct()); got != t.failPct[wl][col] {
				return fmt.Errorf("Figure 2 %s/%s: %s%% failures, EXPERIMENTS.md says %s%%", wl, sv, got, t.failPct[wl][col])
			}
		}
	}
	return nil
}
