package shard

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/inject"
	"ntdts/internal/telemetry"
	"ntdts/internal/workload"
)

func newClusterRunner(nodes int, routing string) *core.Runner {
	opts := core.DefaultRunnerOptions()
	opts.Telemetry = telemetry.Options{Enabled: true}
	opts.Cluster = core.ClusterConfig{Nodes: nodes, Routing: routing}
	return core.NewRunner(workload.NewIIS(workload.MSCS), opts)
}

// TestClusterHeaderRoundTrip: the cluster topology rides the journal
// header, so shard workers and resumes rebuild the identical cluster.
func TestClusterHeaderRoundTrip(t *testing.T) {
	r := newClusterRunner(3, "least-loaded")
	got, err := RunnerFromHeader(HeaderFor(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Opts.Cluster != r.Opts.Cluster {
		t.Fatalf("cluster config drifted through the header: %+v -> %+v",
			r.Opts.Cluster, got.Opts.Cluster)
	}
	// And a single-host runner's header must not invent a topology.
	single := core.NewRunner(workload.NewIIS(workload.MSCS), core.DefaultRunnerOptions())
	if h := HeaderFor(single); h.ClusterNodes != 0 || h.ClusterRouting != "" {
		t.Fatalf("single-host header grew cluster fields: %+v", h)
	}
}

// clusterSpecs is the 3-node campaign the cluster suite dispatches: the
// three scenario pseudo-faults plus node-addressed KERNEL32 faults.
var clusterSpecs = []inject.FaultSpec{
	{Function: core.ClusterNodeCrashFunction, Invocation: 5, Type: inject.FlipBits},
	{Function: core.ClusterServiceCrashFunction, Invocation: 5, Type: inject.FlipBits, Node: 1},
	{Function: core.ClusterPartitionFunction, Param: 15, Invocation: 5, Type: inject.FlipBits},
	{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.FlipBits},
	{Function: "ReadFile", Param: 1, Invocation: 1, Type: inject.ZeroBits, Node: 2},
	{Function: "WriteFile", Param: 1, Invocation: 1, Type: inject.OneBits},
	{Function: "CreateFile", Param: 0, Invocation: 1, Type: inject.ZeroBits},
	{Function: "CloseHandle", Param: 0, Invocation: 2, Type: inject.FlipBits},
}

func roundRobinCluster() *core.Runner { return newClusterRunner(3, "round-robin") }

// TestShardedClusterMatchesUnsharded: a 3-node cluster campaign on a
// fleet sized by WithShards(2/4), two runs per worker, produces archive,
// trace and metrics byte-identical to the in-process run.
func TestShardedClusterMatchesUnsharded(t *testing.T) {
	var shapes []shape
	for _, shards := range []int{2, 4} {
		shapes = append(shapes, shape{fmt.Sprintf("shards %d", shards), []core.Option{
			core.WithShards(shards), core.WithShardExecutor(NewFleet(FleetOptions{WorkerParallelism: 2}))}})
	}
	requireMatches(t, roundRobinCluster, clusterSpecs, shapes)
}

// TestClusterFleetMatrix is the cross-transport equivalence drill: one
// 3-node cluster campaign executed as {-shards 4 (the registered
// fleet), stealing fleet of 4, stealing fleet with one worker killed
// mid-stream, TCP loopback fleet} must produce archive, trace and
// metrics byte-identical to the in-process run. CI runs this under
// -race.
func TestClusterFleetMatrix(t *testing.T) {
	severing := func() Spawner {
		inner := InProcess()
		var spawned atomic.Int32
		return func() (*Conn, error) {
			conn, err := inner()
			if err != nil {
				return nil, err
			}
			if spawned.Add(1) == 1 {
				conn.Out = &severReader{r: conn.Out, kill: conn.Kill, after: 2}
			}
			return conn, nil
		}
	}
	tcpAddr := startWorkerServer(t, "cluster-matrix-key")
	tcpSpawner := TCPSpawner(tcpAddr, "cluster-matrix-key", TCPOptions{})

	fleet := func(opts FleetOptions) []core.Option {
		return []core.Option{core.WithShardExecutor(NewFleet(opts))}
	}
	requireMatches(t, roundRobinCluster, clusterSpecs, []shape{
		{"shards-4", []core.Option{core.WithShards(4)}},
		{"steal-4", fleet(FleetOptions{Workers: 4})},
		{"steal-4-killed", fleet(FleetOptions{
			Workers: 4, Spawn: severing(),
			RedispatchBackoff: 5 * time.Millisecond,
		})},
		{"tcp-loopback", fleet(FleetOptions{
			Spawners: []Spawner{tcpSpawner, tcpSpawner, tcpSpawner, tcpSpawner},
		})},
	})
}
