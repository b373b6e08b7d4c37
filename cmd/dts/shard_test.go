package main

// -shards self-tests: -shards K runs the -workers K fleet, whose
// coordinator in this process spawns real dts worker processes (this
// test binary re-exec'd through TestHelperProcess, exactly like the
// chaos tests). The merged archive must be byte-identical to the
// unsharded run — including after a worker SIGKILLs itself mid-chunk
// and its remainder is re-dispatched.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntdts/internal/journal"
)

// unshardedArchive runs the campaign unsharded in-process.
func unshardedArchive(t *testing.T, dir, cfgPath string) []byte {
	t.Helper()
	outPath := filepath.Join(dir, "unsharded.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q", "-parallel", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedArchiveMatchesUnsharded fans the 200-spec campaign out over
// four real worker processes and byte-compares the merged archive with
// the unsharded run.
func TestShardedArchiveMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec shard test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1") // workerSpawner re-enters via TestHelperProcess
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	outPath := filepath.Join(dir, "sharded.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-shards", "4", "-parallel", "1"}, &out); err != nil {
		t.Fatalf("sharded campaign: %v", err)
	}
	sharded, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, sharded) {
		t.Fatal("archive from dts -shards 4 differs from the unsharded run")
	}
}

// TestShardedWorkerSigkillRedispatch is the tentpole failure drill: one
// worker SIGKILLs itself mid-chunk (the DTS_SHARD_CHAOS_KILL hook behind
// -chaos), the coordinator keeps its streamed prefix, re-dispatches only
// the remaining specs, and the merged archive still byte-matches the
// unsharded run.
func TestShardedWorkerSigkillRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec shard test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	t.Setenv("DTS_SHARD_CHAOS_KILL", "1:5") // worker 1's first process dies after 5 records
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	golden := unshardedArchive(t, dir, cfgPath)

	outPath := filepath.Join(dir, "chaos-sharded.json")
	var out bytes.Buffer
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-shards", "4", "-chaos"}, &out); err != nil {
		t.Fatalf("sharded campaign with killed worker: %v", err)
	}
	sharded, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, sharded) {
		t.Fatal("archive after worker SIGKILL + re-dispatch differs from the unsharded run")
	}
}

// TestShardsFlagValidation: -shards follows the fleet's flag rules.
// Supervision flags and -fault fail fast with a clear message, negative
// counts are rejected, and -journal is accepted: the fleet journals
// every committed run plus its dispatch provenance.
func TestShardsFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-config", cfgPath, "-shards", "4", "-run-deadline", "1s"},
		{"-config", cfgPath, "-shards", "4", "-max-quarantined", "3"},
		{"-config", cfgPath, "-shards", "2", "-fault", "ReadFile 0 1 zero"},
	} {
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("%v: err = %v, want a -shards conflict", args[2:], err)
		}
	}
	if err := run([]string{"-config", cfgPath, "-shards", "-1"}, &out); err == nil {
		t.Error("negative -shards accepted")
	}

	if testing.Short() {
		t.Skip("re-exec shard test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	golden := unshardedArchive(t, dir, cfgPath)
	outPath, jPath := filepath.Join(dir, "journaled.json"), filepath.Join(dir, "shards.journal")
	if err := run([]string{"-config", cfgPath, "-out", outPath, "-q",
		"-shards", "2", "-journal", jPath}, &out); err != nil {
		t.Fatalf("-shards with -journal: %v", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, got) {
		t.Fatal("archive from dts -shards 2 -journal differs from the unsharded run")
	}
	rep, err := journal.Replay(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || len(rep.Runs) != len(rep.Plan.Jobs) || len(rep.Dispatch) == 0 {
		t.Fatalf("journal incomplete: plan %v, %d runs, %d dispatch events",
			rep.Plan != nil, len(rep.Runs), len(rep.Dispatch))
	}
}

// TestShardChaosEnvGating proves the DTS_SHARD_CHAOS_KILL plumbing under
// -shards: a malformed spec is a hard error when -chaos arms it — so the
// kill drill demonstrably reaches the fleet — and inert without -chaos.
func TestShardChaosEnvGating(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec shard test")
	}
	t.Setenv("DTS_HELPER_PROCESS", "1")
	t.Setenv("DTS_SHARD_CHAOS_KILL", "bogus")
	dir := t.TempDir()
	cfgPath := chaosCampaign(t, dir)
	var out bytes.Buffer
	err := run([]string{"-config", cfgPath, "-q", "-shards", "2", "-chaos"}, &out)
	if err == nil || !strings.Contains(err.Error(), "bad chaos spec") {
		t.Fatalf("armed bogus chaos spec: err = %v, want a parse error", err)
	}
	if err := run([]string{"-config", cfgPath, "-q", "-shards", "2"}, &out); err != nil {
		t.Fatalf("unarmed chaos env must be ignored: %v", err)
	}
}
