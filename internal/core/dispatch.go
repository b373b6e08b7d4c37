package core

// The fleet-dispatch reporting seam. The work-stealing executor lives
// in internal/shard (which imports core), so core sees it only through
// the ShardExecutor interface, whose ExecuteShards returns how the fleet
// behaved — chunks redispatched, workers lost, whether the campaign
// finished degraded. The stats ride SetResult outside the JSON archive,
// so archives stay byte-identical at any fleet shape.

// DispatchStats summarizes one fleet execution.
type DispatchStats struct {
	// Workers is the fleet size (dispatch slots).
	Workers int
	// Chunks counts fresh chunks carved from the job list.
	Chunks int
	// Redispatched counts chunk re-dispatch events (worker death, torn
	// stream, stall or progress deadline).
	Redispatched int
	// Speculated counts speculative re-issues of straggler tail chunks.
	Speculated int
	// WorkerDeaths counts worker sessions that died or were killed.
	WorkerDeaths int
	// WorkersLost counts slots whose respawn budget was exhausted and
	// that left the fleet for good.
	WorkersLost int
	// LocalRuns counts runs the coordinator finished in-process after
	// remote budgets ran out — the graceful-degradation path.
	LocalRuns int
	// Degraded reports that the campaign completed but needed the
	// in-process fallback (LocalRuns > 0).
	Degraded bool
	// Transport names the worker transport ("inprocess", "exec", "tcp").
	Transport string
}

// JobKeys returns the job identity sequence of a plan — each job's spec
// key, probe jobs suffixed "/probe" — in job-list order.
func JobKeys(jobs []PlanJob) []string { return jobKeys(jobs) }

// PlanFingerprint returns the fnv64a fingerprint of the job list, the
// same value the campaign supervisor journals. Exported so the fleet
// coordinator can write journals dts -resume accepts.
func PlanFingerprint(jobs []PlanJob) string { return planFingerprint(jobKeys(jobs)) }
