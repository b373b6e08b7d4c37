package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ntdts/internal/determinism"
	"ntdts/internal/inject"
	"ntdts/internal/ntsim"
	"ntdts/internal/workload"
)

// planSpecs materializes the first n specs of a workload's catalog plan,
// so equivalence tests sweep a realistic spec mix (every activated
// function × parameter × corruption) without paying for the full catalog.
func planSpecs(t *testing.T, def workload.Definition, n int) []inject.FaultSpec {
	t.Helper()
	var specs []inject.FaultSpec
	// One catalog walk per invocation, so spec counts beyond one sweep's
	// catalog (~87 for Apache1) draw from deeper invocations — sites the
	// snapshot engine still groups and serves from the same boot prefix.
	for inv := 1; len(specs) < n; inv++ {
		if inv > 8 {
			t.Fatalf("plan too small: %d specs, want %d", len(specs), n)
		}
		c := NewCampaign(NewRunner(def, RunnerOptions{}), WithInvocation(inv))
		p, err := c.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range p.Jobs {
			if j.Probe {
				continue
			}
			specs = append(specs, j.Spec)
			if len(specs) == n {
				break
			}
		}
	}
	return specs
}

// TestSnapshotForkMatchesFreshBoot is the engine's acceptance oracle: a
// 200-spec campaign executed on the snapshot-fork engine is deep- and
// byte-identical to the legacy fresh-boot engine, at every worker count.
func TestSnapshotForkMatchesFreshBoot(t *testing.T) {
	def := workload.NewApache1(workload.Standalone)
	specs := planSpecs(t, def, 200)

	runSet := func(freshBoot bool, par int) *SetResult {
		c := NewCampaign(
			NewRunner(def, RunnerOptions{}),
			WithSpecs(specs),
			WithParallelism(par),
		)
		if freshBoot {
			c.Runner().Opts.FreshBoot = true
		}
		set, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("freshBoot=%v par=%d: %v", freshBoot, par, err)
		}
		return set
	}

	baseline := runSet(true, 1)
	baseJSON, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 16} {
		forked := runSet(false, par)
		determinism.AssertEqualSlices(t, fmt.Sprintf("snapshot-forked runs (par=%d)", par),
			forked.Runs, baseline.Runs, func(i int) string {
				return fmt.Sprintf("dts -config <Apache1/none> -fault %q -fresh-boot", baseline.Runs[i].Fault.String())
			})
		if !reflect.DeepEqual(baseline, forked) {
			t.Fatalf("par=%d: set diverges outside Runs", par)
		}
		forkedJSON, err := json.Marshal(forked)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseJSON, forkedJSON) {
			t.Fatalf("par=%d: archive bytes diverge from fresh-boot", par)
		}
	}
}

// TestSnapshotForkAllWorkloads sweeps every supervision mode over a small
// spec slice: the fork path must match fresh-boot under middleware
// (MSCS restart loops, watchd polling) as well as standalone.
func TestSnapshotForkAllWorkloads(t *testing.T) {
	for _, sup := range []workload.Supervision{workload.Standalone, workload.MSCS, workload.Watchd} {
		for _, def := range workload.StandardSet(sup) {
			def := def
			t.Run(def.Name+"/"+sup.String(), func(t *testing.T) {
				t.Parallel()
				specs := planSpecs(t, def, 12)
				run := func(freshBoot bool) *SetResult {
					c := NewCampaign(NewRunner(def, RunnerOptions{}), WithSpecs(specs), WithParallelism(2))
					c.Runner().Opts.FreshBoot = freshBoot
					set, err := c.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					return set
				}
				fresh, forked := run(true), run(false)
				if !reflect.DeepEqual(fresh, forked) {
					t.Fatal("forked campaign diverges from fresh-boot")
				}
			})
		}
	}
}

// TestSnapshotFallback proves the transparent fresh-boot fallback: a
// workload whose Setup leaves the kernel non-quiescent (a background
// timer here) resolves to TierNone and still produces results identical
// to forced fresh-boot.
func TestSnapshotFallback(t *testing.T) {
	def := workload.NewApache1(workload.Standalone)
	base := def.Setup
	def.Setup = func(k *ntsim.Kernel) {
		base(k)
		// A boot-time maintenance timer: snapshot-incompatible, but far
		// enough out never to fire inside a run.
		k.Clock().ScheduleAfter(24*time.Hour, func() {})
	}

	r := NewRunner(def, RunnerOptions{})
	if tier := r.SnapshotAt(inject.Site{Function: "WriteFile", Invocation: 1}); tier != TierNone {
		t.Fatalf("non-quiescent setup got tier %v, want none", tier)
	}

	specs := planSpecs(t, workload.NewApache1(workload.Standalone), 8)
	run := func(freshBoot bool) *SetResult {
		c := NewCampaign(NewRunner(def, RunnerOptions{}), WithSpecs(specs))
		c.Runner().Opts.FreshBoot = freshBoot
		set, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	if fresh, fallback := run(true), run(false); !reflect.DeepEqual(fresh, fallback) {
		t.Fatal("fallback path diverges from fresh-boot")
	}
}

// TestSnapshotAtTier: quiescent workloads resolve every site to the boot
// tier; fresh-boot mode forces TierNone.
func TestSnapshotAtTier(t *testing.T) {
	site := inject.Site{Function: "ReadFile", Invocation: 1}
	r := NewRunner(workload.NewIIS(workload.Standalone), RunnerOptions{})
	if tier := r.SnapshotAt(site); tier != TierBoot {
		t.Fatalf("IIS setup got tier %v, want boot", tier)
	}
	fb := NewRunner(workload.NewIIS(workload.Standalone), RunnerOptions{FreshBoot: true})
	if tier := fb.SnapshotAt(site); tier != TierNone {
		t.Fatalf("fresh-boot got tier %v, want none", tier)
	}
}

// TestSiteGroups: the plan partitions cleanly by activation site — every
// job in exactly one group, grouped jobs sharing their (function,
// invocation), groups at the boot tier for a snapshot-capable workload.
func TestSiteGroups(t *testing.T) {
	c := NewCampaign(NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{}))
	p, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	groups := p.SiteGroups()
	seen := make(map[int]bool)
	for _, g := range groups {
		if g.Tier != TierBoot {
			t.Fatalf("site %v: tier %v, want boot", g.Site, g.Tier)
		}
		for _, ji := range g.Jobs {
			if seen[ji] {
				t.Fatalf("job %d in two groups", ji)
			}
			seen[ji] = true
			if got := p.Jobs[ji].Spec.Site(); got != g.Site {
				t.Fatalf("job %d site %v grouped under %v", ji, got, g.Site)
			}
		}
	}
	if len(seen) != len(p.Jobs) {
		t.Fatalf("groups cover %d of %d jobs", len(seen), len(p.Jobs))
	}
}

// TestRunAllocBudget pins the allocation count of one pooled run. The
// budget has headroom over the measured value but fails loudly if the
// pooling or copy-on-write layers regress. (Seed baseline before this
// PR: ~192k allocs per campaign run.)
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run is slow")
	}
	r := NewRunner(workload.NewApache1(workload.Standalone), RunnerOptions{})
	spec := &inject.FaultSpec{Function: "ReadFile", Param: 0, Invocation: 1, Type: inject.ZeroBits}
	// Warm the snapshot cache and pools outside the measurement.
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 2000
	if allocs > budget {
		t.Fatalf("run allocated %.0f objects, budget %d — pooling regressed", allocs, budget)
	}
	t.Logf("allocs/run = %.0f (budget %d)", allocs, budget)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestRunByteBudget pins the bytes one warm fault-free run allocates for
// each server. TestRunAllocBudget counts objects, so it cannot see a few
// large buffers; this budget fails if the request path goes back to
// allocating the 115 KB static page, its pipe queues or the servers'
// untouched VirtualAlloc regions on every run.
func TestRunByteBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run is slow")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	// sync.Pool caches per P and a run's goroutines migrate between Ps,
	// so with several Ps a buffer put back on one P is sometimes missed
	// from another and reallocated. One P measures the request path's own
	// allocation without that scheduling noise.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		def    workload.Definition
		budget uint64 // bytes per run
	}{
		{workload.NewIIS(workload.Standalone), 80 << 10},
		{workload.NewApache1(workload.Standalone), 64 << 10},
		{workload.NewSQL(workload.Standalone), 160 << 10},
	} {
		r := NewRunner(tc.def, RunnerOptions{})
		// Warm the snapshot cache and buffer pools outside the measurement.
		for i := 0; i < 2; i++ {
			if _, err := r.Run(nil); err != nil {
				t.Fatal(err)
			}
		}
		// Collect now so no collection empties the pools mid-measurement.
		runtime.GC()
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := r.Run(nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		if perRun > tc.budget {
			t.Errorf("%s: run allocated %d bytes, budget %d — a request-path buffer is no longer recycled",
				tc.def.Name, perRun, tc.budget)
		}
		t.Logf("%s: bytes/run = %d (budget %d)", tc.def.Name, perRun, tc.budget)
	}
}
