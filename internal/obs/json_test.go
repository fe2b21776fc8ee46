package obs

import "testing"

func TestSnapshotJSON(t *testing.T) {
	m := NewMetrics()
	if got := SnapshotJSON(m.Snapshot()); got != nil {
		t.Fatalf("empty metrics should render no rows, got %v", got)
	}

	m.Add(CBcast, CollectiveStats{Calls: 2, WireBytesOut: 100, WireBytesIn: 50, WaitNs: 2e9})
	m.Add(CAlltoallv, CollectiveStats{Calls: 3, WireBytesOut: 900, WireBytesIn: 900, MaxMsgBytes: 300})
	rows := SnapshotJSON(m.Snapshot())

	// One row per active kind plus the trailing total; idle kinds skipped.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (alltoallv, bcast, total): %+v", len(rows), rows)
	}
	if rows[0].Collective != "alltoallv" || rows[1].Collective != "bcast" {
		t.Fatalf("row order: %q, %q", rows[0].Collective, rows[1].Collective)
	}
	total := rows[2]
	if total.Collective != "total" {
		t.Fatalf("last row = %q, want total", total.Collective)
	}
	if total.Calls != 5 || total.WireOutBytes != 1000 || total.WireInBytes != 950 {
		t.Fatalf("total row: %+v", total)
	}
	if total.MaxMsgBytes != 300 {
		t.Fatalf("total MaxMsgBytes = %d, want max not sum", total.MaxMsgBytes)
	}
	if rows[1].WaitSeconds != 2.0 {
		t.Fatalf("bcast WaitSeconds = %g", rows[1].WaitSeconds)
	}
}
