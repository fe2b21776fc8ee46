package obs

// TraversalStats counts the adaptive frontier engine's per-step choices
// and the wire volume each one moved — the observable record of the
// direction-optimizing traversal (how often it pulled, how often the dense
// bitmap exchange beat the sparse ID list, and how many bytes the switch
// saved against the always-sparse baseline). One value is produced per
// traversal and carried on the analytic's result; the harness sums them
// into the hybrid benchmark table.
type TraversalStats struct {
	// PushSteps and PullSteps count frontier steps by direction.
	PushSteps uint64 `json:"push_steps"`
	PullSteps uint64 `json:"pull_steps"`
	// DirSwitches counts push<->pull transitions.
	DirSwitches uint64 `json:"dir_switches"`
	// SparseExchanges and DenseExchanges count frontier exchanges by the
	// representation chosen (pull steps count their bitmap refresh as a
	// dense exchange).
	SparseExchanges uint64 `json:"sparse_exchanges"`
	DenseExchanges  uint64 `json:"dense_exchanges"`
	// SparseBytes and DenseBytes are the payload bytes shipped by each
	// representation (global-sum semantics when every rank contributes its
	// local share and the harness reduces them).
	SparseBytes uint64 `json:"sparse_bytes"`
	DenseBytes  uint64 `json:"dense_bytes"`
	// BytesSaved estimates payload bytes avoided by picking the cheaper
	// representation over the sparse baseline on dense exchanges.
	BytesSaved uint64 `json:"bytes_saved"`
	// HaloBuilds counts retained-halo constructions the engine triggered
	// (at most one per traversal; zero when the plan cache held the halo).
	HaloBuilds uint64 `json:"halo_builds"`
}

// Merge folds o into s.
func (s *TraversalStats) Merge(o TraversalStats) {
	s.PushSteps += o.PushSteps
	s.PullSteps += o.PullSteps
	s.DirSwitches += o.DirSwitches
	s.SparseExchanges += o.SparseExchanges
	s.DenseExchanges += o.DenseExchanges
	s.SparseBytes += o.SparseBytes
	s.DenseBytes += o.DenseBytes
	s.BytesSaved += o.BytesSaved
	s.HaloBuilds += o.HaloBuilds
}

// Steps returns the total frontier steps.
func (s TraversalStats) Steps() uint64 { return s.PushSteps + s.PullSteps }
