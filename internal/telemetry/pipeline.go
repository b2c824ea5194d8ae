package telemetry

// The canonical instrument set of the scan pipeline, registered in the
// Default registry at init. Names, units and semantics are documented
// in DESIGN.md §8; everything here is modeled time unless the name says
// wall. host.Metrics remains as a per-device compatibility view of the
// same quantities (see internal/host).
var (
	// ScanCalls counts accelerator scan invocations (one systolic pass
	// over one database chunk or record).
	ScanCalls = Default().NewCounter(
		NameScanCalls,
		"accelerator scan invocations")
	// CellsUpdated counts similarity-matrix cell updates performed by
	// the simulated array.
	CellsUpdated = Default().NewCounter(
		NameCellsUpdated,
		"similarity-matrix cell updates computed by the array")
	// ArrayCycles counts simulated array clock steps.
	ArrayCycles = Default().NewCounter(
		NameArrayCycles,
		"simulated systolic-array clock steps")
	// StripsTotal counts query strips (figure 7 splitting) streamed.
	StripsTotal = Default().NewCounter(
		NameStrips,
		"query strips streamed through the array")
	// ComputeSeconds accumulates modeled array execution time.
	ComputeSeconds = Default().NewFloatCounter(
		NameComputeSeconds,
		"modeled array execution time (seconds)")
	// TransferSeconds accumulates modeled PCI link time.
	TransferSeconds = Default().NewFloatCounter(
		NameTransferSeconds,
		"modeled PCI transfer time (seconds)")
	// HostSeconds accumulates measured host wall time spent in the
	// pipeline's software phases (retrieval, degraded chunks).
	HostSeconds = Default().NewFloatCounter(
		NameHostSeconds,
		"measured host wall time in software pipeline phases (seconds)")
	// BytesIn / BytesOut count modeled PCI traffic.
	BytesIn = Default().NewCounter(
		NamePCIBytesIn,
		"modeled bytes streamed to the board")
	BytesOut = Default().NewCounter(
		NamePCIBytesOut,
		"modeled bytes returned to the host")

	// Faults counts injected faults detected at the device, by class
	// (pci, hang, bitflip, dead).
	Faults = Default().NewCounterVec(
		NameFaults,
		"injected board faults detected at the device", "class")
	// FaultSeconds accumulates the modeled link time lost to aborted
	// streams and reset handshakes.
	FaultSeconds = Default().NewFloatCounter(
		NameFaultSeconds,
		"modeled link time lost to fault recovery (seconds)")
	// ChunkFailures counts failed chunk attempts as classified by the
	// cluster dispatcher (includes genuine chunk-deadline misses).
	ChunkFailures = Default().NewCounterVec(
		NameChunkFailures,
		"failed chunk attempts classified by the cluster dispatcher", "class")
	// Retries / Redispatches / Quarantines count cluster recovery
	// actions; SoftwareChunks counts chunks completed by the software
	// fallback and DegradedRuns the scans that needed it.
	Retries = Default().NewCounter(
		NameRetries,
		"chunk re-dispatches after failed attempts")
	Redispatches = Default().NewCounter(
		NameRedispatches,
		"retries that moved to a different board")
	Quarantines = Default().NewCounter(
		NameQuarantines,
		"boards quarantined by the circuit breaker")
	SoftwareChunks = Default().NewCounter(
		NameSoftwareChunks,
		"chunks completed by the software fallback")
	DegradedRuns = Default().NewCounter(
		NameDegradedRuns,
		"scans that degraded to the software scanner")

	// ChunkSeconds is the modeled latency distribution of one
	// accelerator scan call (compute plus transfer).
	ChunkSeconds = Default().NewHistogram(
		NameChunkSeconds,
		"modeled per-scan latency: array compute plus PCI transfer (seconds)",
		ExponentialBounds(1e-6, 4, 16))
	// PEOccupancy is the fraction of PE-cycles that performed cell
	// updates in one array run — wavefront fill/drain and query reload
	// are the loss terms.
	PEOccupancy = Default().NewHistogram(
		NamePEOccupancy,
		"fraction of PE-cycles doing cell updates per array run",
		LinearBounds(0.05, 0.05, 20))
	// RecordSeconds is the measured wall latency of scanning one
	// database record end to end (including queueing inside the engine).
	RecordSeconds = Default().NewHistogram(
		NameRecordSeconds,
		"measured wall latency per database record scanned (seconds)",
		ExponentialBounds(1e-5, 4, 16))

	// StreamBufferBytes is the parsed-record data currently admitted to
	// a streaming search's prefetch window (bounded by -max-memory).
	StreamBufferBytes = Default().NewGauge(
		NameStreamBufferBytes,
		"record bytes admitted to the streaming search window")
	// StreamStalls counts producer stalls: the streaming parser blocked
	// because the window had reached its memory budget.
	StreamStalls = Default().NewCounter(
		NameStreamStalls,
		"streaming-search producer stalls at the memory budget")

	// ServerInflight / ServerQueueDepth gauge the daemon's admission
	// pipeline: requests inside the scheduler window vs requests still
	// waiting in the bounded queue.
	ServerInflight = Default().NewGauge(
		NameServerInflight,
		"requests admitted to the daemon's scan scheduler")
	ServerQueueDepth = Default().NewGauge(
		NameServerQueueDepth,
		"requests waiting in the daemon's admission queue")
	// ServerRequests counts finished requests by outcome.
	ServerRequests = Default().NewCounterVec(
		NameServerRequests,
		"finished daemon requests by outcome", "outcome")
	// ServerShed counts requests shed at admission (429); ServerDegraded
	// the requests the breaker redirected to the software oracle.
	ServerShed = Default().NewCounter(
		NameServerShed,
		"requests shed at admission with 429")
	ServerDegraded = Default().NewCounter(
		NameServerDegraded,
		"requests degraded to the software engine by the breaker")
	// ServerBreakerState gauges the daemon's degradation breaker
	// (0 closed, 0.5 half-open, 1 open).
	ServerBreakerState = Default().NewGauge(
		NameServerBreakerState,
		"degradation breaker state (0 closed, 0.5 half-open, 1 open)")
	// ServerDrains counts graceful drains; ServerStalls the scheduler
	// admissions that stalled at the shared memory budget.
	ServerDrains = Default().NewCounter(
		NameServerDrains,
		"graceful daemon drains started")
	ServerStalls = Default().NewCounter(
		NameServerStalls,
		"daemon admissions stalled at the memory budget")
	// ServerSeconds is the wall latency of one daemon request, decode to
	// response.
	ServerSeconds = Default().NewHistogram(
		NameServerSeconds,
		"daemon request wall latency (seconds)",
		ExponentialBounds(1e-4, 4, 14))

	// IndexShards / IndexRecords / IndexPayloadBytes gauge the shape of
	// the packed shard index this process has opened (zero when it scans
	// FASTA directly). IndexShardsBuilt counts shards sealed by swindex.
	IndexShards = Default().NewGauge(
		NameIndexShards,
		"shards in the opened packed index")
	IndexRecords = Default().NewGauge(
		NameIndexRecords,
		"records in the opened packed index")
	IndexPayloadBytes = Default().NewGauge(
		NameIndexPayloadBytes,
		"packed payload bytes in the opened index")
	IndexShardsBuilt = Default().NewCounter(
		NameIndexShardsBuilt,
		"shards sealed by index builds")
	// SwarGroups / SwarRecords count lane-group scans and the records
	// scored inside SWAR lanes; SwarPromotions / SwarFallbacks count the
	// saturation escapes (8-bit lanes re-run in the 16-bit tier, and
	// lanes handed to the scalar oracle after overflowing every tier).
	SwarGroups = Default().NewCounter(
		NameSwarGroups,
		"lane groups scanned by the SWAR software kernel")
	SwarRecords = Default().NewCounter(
		NameSwarRecords,
		"database records scored inside SWAR lanes")
	SwarPromotions = Default().NewCounter(
		NameSwarPromotions,
		"SWAR lanes promoted to the 16-bit tier after 8-bit saturation")
	SwarFallbacks = Default().NewCounter(
		NameSwarFallbacks,
		"SWAR lanes re-scored by the scalar oracle after tier overflow")

	// ModeledGCUPS and WallGCUPS track throughput: cell updates per
	// modeled accelerator second vs per measured wall second of the
	// enclosing scan. The distinction matters — the modeled figure is
	// what the paper's hardware would sustain, the wall figure is what
	// this host's simulation achieves.
	ModeledGCUPS = Default().NewGauge(
		NameModeledGCUPS,
		"modeled accelerator throughput (giga cell updates per modeled second)")
	WallGCUPS = Default().NewGauge(
		NameWallGCUPS,
		"achieved simulation throughput (giga cell updates per wall second)")
)

// UpdateModeledGCUPS refreshes the modeled-throughput gauge from the
// accumulated cell and modeled-compute counters.
func UpdateModeledGCUPS() {
	if sec := ComputeSeconds.Value(); sec > 0 {
		ModeledGCUPS.Set(float64(CellsUpdated.Value()) / sec / 1e9)
	}
}
