package core

// The shard executor seam. Sharded execution lives in internal/shard,
// which imports core for the campaign plumbing — so core cannot import
// it back. Instead shard registers its executor here at init time, and
// Campaign.Run looks it up when Shards > 1. WithShardExecutor overrides
// the registration and engages the executor at any Shards value.

import (
	"context"
	"sync"
)

// ShardExecutor executes a prepared campaign's job list across worker
// processes and returns the results in job order — the same contract as
// the in-process pool, so Assemble merges either interchangeably — plus
// how that one execution dispatched (nil when it never started). The
// stats are per call, so one executor can serve concurrent campaigns.
type ShardExecutor interface {
	ExecuteShards(ctx context.Context, c *Campaign, p *Prepared) ([]RunResult, *DispatchStats, error)
}

var (
	shardExecMu sync.RWMutex
	shardExec   ShardExecutor
)

// RegisterShardExecutor installs the process-wide default ShardExecutor
// used when no WithShardExecutor was given. internal/shard calls this from
// its init, so importing it is enough to enable -shards.
func RegisterShardExecutor(e ShardExecutor) {
	shardExecMu.Lock()
	shardExec = e
	shardExecMu.Unlock()
}

func registeredShardExecutor() ShardExecutor {
	shardExecMu.RLock()
	defer shardExecMu.RUnlock()
	return shardExec
}
