package loadgen

import (
	"encoding/json"
	"fmt"
	"os"

	"wisp/internal/serve"
)

// BenchSchema versions the benchmark record format.  Schema 2 added the
// allocation columns (allocs_per_op, alloc_bytes_per_op, gc_pause_p99_us);
// schema 3 added the adversarial-mix columns (legit_p99_us, attack_ratio);
// schema 4 added the experiment Label so cluster and single-node records
// can share bench/ without gating against each other's baselines.
// Readers accept any schema up to their own, so older baselines still
// gate throughput and latency while the newer gates wait for the baseline
// to be regenerated.
const BenchSchema = 4

// BenchOp is one op class's latency slice in a benchmark record.  Resumed
// transactions appear as their own "<op>+resumed" class, so the gate can
// hold the abbreviated-handshake path to its own baseline.
type BenchOp struct {
	Count int   `json:"count"`
	P50US int64 `json:"p50_us"`
	P99US int64 `json:"p99_us"`
}

// BenchRecord is the compact machine-readable result of one serve-bench
// run: per-op p50/p99, throughput and serving-cache hit rates.  It is
// what `make bench-json` writes to BENCH_serve.json and what the CI
// perf-regression gate (cmd/benchcmp) compares against the checked-in
// baseline.
type BenchRecord struct {
	Schema int `json:"schema"`
	// Label names the experiment that produced the record ("serve",
	// "cluster", "cluster-single", ...).  benchcmp refuses to compare two
	// differently-labeled records, so a cluster record dropped next to the
	// single-node baseline cannot silently clobber its gate.  Empty on
	// pre-schema-4 records, which compare against anything (legacy).
	Label          string             `json:"label,omitempty"`
	Transactions   int                `json:"transactions"`
	OK             int                `json:"ok"`
	Mismatches     int                `json:"mismatches"`
	Resumed        int                `json:"resumed"`
	ThroughputRPS  float64            `json:"throughput_rps"`
	ThroughputMBps float64            `json:"throughput_mbps"`
	Ops            map[string]BenchOp `json:"ops"`

	SessionHitRate    float64 `json:"session_hit_rate"`
	PrecomputeHitRate float64 `json:"precompute_hit_rate"`

	// Schema 2: server-side allocation discipline over the run.  Zero
	// values mean "not measured" (schema-1 record or no runtime stats).
	AllocsPerOp     float64 `json:"allocs_per_op,omitempty"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op,omitempty"`
	GCPauseP99US    float64 `json:"gc_pause_p99_us,omitempty"`

	// Schema 3: adversarial-mix columns.  LegitP99US is the legit-only
	// overall latency p99 of a mixed run; AttackRatio is the attacker
	// fraction of all clients.  Zero values mean an attack-free run (or an
	// older record).
	LegitP99US  int64   `json:"legit_p99_us,omitempty"`
	AttackRatio float64 `json:"attack_ratio,omitempty"`
}

// NewBenchRecord distills a load report (and optional server stats) into
// the benchmark record the regression gate consumes.
func NewBenchRecord(rep *Report, stats *serve.Stats) *BenchRecord {
	r := &BenchRecord{
		Schema:          BenchSchema,
		Transactions:    rep.Transactions,
		OK:              rep.OK,
		Mismatches:      rep.Mismatches,
		Resumed:         rep.Resumed,
		ThroughputRPS:   rep.AchievedRPS,
		ThroughputMBps:  rep.AchievedMBps,
		Ops:             make(map[string]BenchOp, len(rep.PerOp)),
		AllocsPerOp:     rep.AllocsPerOp,
		AllocBytesPerOp: rep.AllocBytesPerOp,
		GCPauseP99US:    rep.GCPauseP99US,
		AttackRatio:     rep.AttackRatio,
	}
	if rep.Legit != nil {
		r.LegitP99US = rep.Legit.Latency.P99
	}
	for _, row := range rep.PerOp {
		r.Ops[row.Op] = BenchOp{
			Count: row.Latency.Count,
			P50US: row.Latency.P50,
			P99US: row.Latency.P99,
		}
	}
	if stats != nil {
		if stats.SessionCache != nil {
			r.SessionHitRate = stats.SessionCache.HitRate
		}
		if stats.Precompute != nil {
			r.PrecomputeHitRate = stats.Precompute.HitRate
		}
	}
	return r
}

// WriteBenchRecord writes the benchmark record as indented JSON, stamped
// with the experiment label (may be empty for legacy compatibility).
func WriteBenchRecord(path, label string, rep *Report, stats *serve.Stats) error {
	rec := NewBenchRecord(rep, stats)
	rec.Label = label
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchRecord loads and validates a benchmark record.
func ReadBenchRecord(path string) (*BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema < 1 || r.Schema > BenchSchema {
		return nil, fmt.Errorf("%s: schema %d, this build speaks ≤ %d", path, r.Schema, BenchSchema)
	}
	return &r, nil
}
