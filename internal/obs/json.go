package obs

// JSON-friendly views of the per-collective counters, consumed by the
// serve daemon's /v1/stats endpoint (and anything else that wants metrics
// as data rather than as the rendered text table).

// CollectiveJSON is one collective's counters with the kind spelled out.
type CollectiveJSON struct {
	Collective   string  `json:"collective"`
	Calls        uint64  `json:"calls"`
	WireOutBytes uint64  `json:"wire_out_bytes"`
	WireInBytes  uint64  `json:"wire_in_bytes"`
	SelfBytes    uint64  `json:"self_bytes,omitempty"`
	MaxMsgBytes  uint64  `json:"max_msg_bytes,omitempty"`
	WaitSeconds  float64 `json:"wait_seconds"`
	CommSeconds  float64 `json:"comm_seconds"`
}

// collectiveJSON converts one kind's stats.
func collectiveJSON(k Collective, s CollectiveStats) CollectiveJSON {
	return CollectiveJSON{
		Collective:   k.String(),
		Calls:        s.Calls,
		WireOutBytes: s.WireBytesOut,
		WireInBytes:  s.WireBytesIn,
		SelfBytes:    s.SelfBytes,
		MaxMsgBytes:  s.MaxMsgBytes,
		WaitSeconds:  float64(s.WaitNs) / 1e9,
		CommSeconds:  float64(s.CommNs) / 1e9,
	}
}

// SnapshotJSON renders a counter snapshot as one row per collective kind
// with at least one call, ordered by kind, plus a trailing "total" row when
// any kind is non-empty. It reads a snapshot, not the live Metrics, so the
// caller copies the counters out on the owning goroutine.
func SnapshotJSON(snap [NumCollectives]CollectiveStats) []CollectiveJSON {
	var rows []CollectiveJSON
	var total CollectiveStats
	for k := Collective(0); k < NumCollectives; k++ {
		s := snap[k]
		if s.Calls == 0 {
			continue
		}
		rows = append(rows, collectiveJSON(k, s))
		total.merge(s)
	}
	if rows != nil {
		rows = append(rows, collectiveJSON(CNone, total))
		rows[len(rows)-1].Collective = "total"
	}
	return rows
}
