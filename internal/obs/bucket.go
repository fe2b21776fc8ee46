package obs

// BucketStats counts the distributed bucket structure's work: how many
// global buckets the priority loop settled, how many relaxation sub-rounds
// they took, and how much churn the lazy decrease-key caused (tombstones
// skipped, vertices moved between buckets, inserts spilling past the open
// window). One value is produced per run and carried on the analytic's
// result; the harness sums the per-rank values into its delta table. The
// relaxation counters split edge work into the Δ-stepping classes (light =
// weight <= Δ, relaxed to a fixed point inside the bucket; heavy = relaxed
// once when the bucket settles).
type BucketStats struct {
	// Buckets is the number of distinct global buckets processed.
	Buckets uint64 `json:"buckets"`
	// InnerRounds is the total number of relaxation sub-rounds (each one
	// extract + relax + claim exchange) across all buckets.
	InnerRounds uint64 `json:"inner_rounds"`
	// Extracted counts live entries extracted (re-extractions after an
	// in-bucket decrease-key count again).
	Extracted uint64 `json:"extracted"`
	// Tombstones counts stale copies skipped by the lazy decrease-key.
	Tombstones uint64 `json:"tombstones"`
	// Reinserts counts decrease-keys that moved a vertex between buckets.
	Reinserts uint64 `json:"reinserts"`
	// OverflowSpills counts inserts landing beyond the open window.
	OverflowSpills uint64 `json:"overflow_spills"`
	// LightRelaxations and HeavyRelaxations count edge relaxations by
	// Δ-stepping class.
	LightRelaxations uint64 `json:"light_relaxations"`
	HeavyRelaxations uint64 `json:"heavy_relaxations"`
}

// Merge folds o into s.
func (s *BucketStats) Merge(o BucketStats) {
	s.Buckets += o.Buckets
	s.InnerRounds += o.InnerRounds
	s.Extracted += o.Extracted
	s.Tombstones += o.Tombstones
	s.Reinserts += o.Reinserts
	s.OverflowSpills += o.OverflowSpills
	s.LightRelaxations += o.LightRelaxations
	s.HeavyRelaxations += o.HeavyRelaxations
}
