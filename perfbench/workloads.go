package main

// The five workloads. Each is one closed-loop batch campaign of a fixed
// size, run as one dts process; README.md gives the reason for each.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"ntdts/internal/config"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim/win32"
)

// benchWorkload describes one benchmark workload.
type benchWorkload struct {
	name string
	why  string
	// runs is the stated campaign size: every archive must hold exactly
	// this many fault-injection runs.
	runs int
	// reference lists the dts invocations set-up makes, in order; the
	// one writing ref.json is the -parallel 1 reference.
	reference func(e *env) [][]string
	// timed is the dts invocation one timed repetition runs; it writes
	// out.json.
	timed func(e *env) []string
	// traced names the campaign the traced run drives in-process:
	// "figure2", "list" (IIS/watchd-v3 over the seeded list, shared by
	// the three list workloads) or "cluster".
	traced string
	// untraced is the dts invocation doing the same work as the traced
	// campaign; its archive must equal the traced campaign's, and its
	// wall time is the base of bench.trace_overhead.
	untraced func(e *env) []string
}

const (
	listRuns    = 5193 // every parameter of every injectable catalog export × 3 corruptions
	figure2Runs = 3468 // the paper's 12 Figure 2 sets
	clusterRuns = 480  // IIS/MSCS catalog sweep
)

func workloads() []*benchWorkload {
	p := func(e *env) string { return strconv.Itoa(e.nproc) }
	listRef := func(e *env) [][]string {
		return [][]string{{"-q", "-config", "v3.cfg", "-parallel", "1", "-out", "ref.json"}}
	}
	listPlain := func(e *env) []string {
		return []string{"-q", "-config", "v3.cfg", "-parallel", p(e), "-out", "out.json"}
	}
	ws := []*benchWorkload{
		{
			name: "paper-sweep",
			why:  "the paper's Figure 2 campaign (12 sets, 3468 runs): the run loop does nearly all the work",
			runs: figure2Runs,
			reference: func(e *env) [][]string {
				return [][]string{{"-q", "-experiment", "figure2", "-parallel", "1", "-out", "ref.json"}}
			},
			timed: func(e *env) []string {
				return []string{"-q", "-experiment", "figure2", "-parallel", p(e), "-out", "out.json"}
			},
			traced: "figure2",
		},
		{
			name:      "list-supervised",
			why:       "IIS/watchd-v3 over the seeded 5193-spec catalog list with -journal: short runs, per-run supervisor and journal costs",
			runs:      listRuns,
			reference: listRef,
			timed: func(e *env) []string {
				return []string{"-q", "-config", "v3.cfg", "-journal", "run.journal", "-parallel", p(e), "-out", "out.json"}
			},
			traced:   "list",
			untraced: listPlain,
		},
		{
			name:      "list-fleet",
			why:       "the list-supervised campaign run as a work-stealing fleet: the only workload that exercises shard dispatch and the wire protocol",
			runs:      listRuns,
			reference: listRef,
			timed: func(e *env) []string {
				return []string{"-q", "-config", "v3.cfg", "-workers", p(e), "-parallel", "1", "-journal", "run.journal", "-out", "out.json"}
			},
			traced:   "list",
			untraced: listPlain,
		},
		{
			name: "replay-v3",
			why:  "dts -replay of a recorded IIS/none list journal under watchd-v3: journal read and the divergence oracle dominate",
			runs: listRuns,
			reference: func(e *env) [][]string {
				return append([][]string{{"-q", "-config", "none.cfg", "-journal", "src.journal", "-parallel", p(e)}}, listRef(e)...)
			},
			timed: func(e *env) []string {
				return []string{"-q", "-replay", "src.journal", "-middleware", "watchd-v3", "-parallel", p(e), "-out", "out.json"}
			},
			traced:   "list",
			untraced: listPlain,
		},
		{
			name: "cluster-3node",
			why:  "IIS/MSCS catalog campaign on a 3-node simulated cluster: the only workload on ntsim.Machine, the network and the MSCS monitor",
			runs: clusterRuns,
			reference: func(e *env) [][]string {
				return [][]string{{"-q", "-config", "cluster.cfg", "-cluster", "3", "-parallel", "1", "-out", "ref.json"}}
			},
			timed: func(e *env) []string {
				return []string{"-q", "-config", "cluster.cfg", "-cluster", "3", "-parallel", p(e), "-out", "out.json"}
			},
			traced: "cluster",
		},
	}
	for _, w := range ws {
		if w.untraced == nil {
			w.untraced = w.timed
		}
	}
	return ws
}

func findWorkload(name string) (*benchWorkload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is one benchmark invocation's working state.
type env struct {
	dts   string // dts binary
	dir   string // working directory for inputs and outputs
	seed  int64
	nproc int
	specs []inject.FaultSpec // the seeded list, as written to faults.lst
}

// catalogList returns the full catalog fault list: every parameter of
// every injectable KERNEL32 export under the three corruption types —
// what cmd/faultgen writes.
func catalogList() []inject.FaultSpec {
	var entries []config.CatalogEntry
	for _, e := range win32.Catalog() {
		if e.Params > 0 {
			entries = append(entries, config.CatalogEntry{Name: e.Name, Params: e.Params})
		}
	}
	return config.GenerateFaultList(entries)
}

// seededList permutes the catalog list with the seed. The seed only
// orders the list; every seed runs the same set of faults.
func seededList(seed int64) []inject.FaultSpec {
	specs := catalogList()
	rand.New(rand.NewSource(seed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// writeInputs writes the fault list and the three campaign configs.
func (e *env) writeInputs() error {
	e.specs = seededList(e.seed)
	f, err := os.Create(filepath.Join(e.dir, "faults.lst"))
	if err != nil {
		return err
	}
	if err := config.WriteFaultList(f, e.specs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	files := map[string]string{
		"v3.cfg":      "workload = IIS\nmiddleware = watchd\nwatchd_version = 3\nfault_list = faults.lst\n",
		"none.cfg":    "workload = IIS\nmiddleware = none\nfault_list = faults.lst\n",
		"cluster.cfg": "workload = IIS\nmiddleware = mscs\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(e.dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }
