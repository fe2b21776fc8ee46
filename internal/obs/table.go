package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// PhaseStat aggregates every span with one name across the given tracers.
type PhaseStat struct {
	Name    string
	Count   uint64
	TotalNs int64
	MinNs   int64
	MaxNs   int64
	ArgSum  int64
}

// Mean returns the average span duration.
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return time.Duration(p.TotalNs / int64(p.Count))
}

// PhaseSummary folds the tracers' events into per-name statistics, sorted
// by total time descending (ties by name, so output is deterministic).
func PhaseSummary(tracers []*Tracer) []PhaseStat {
	idx := make(map[string]int)
	var stats []PhaseStat
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, e := range t.Events() {
			i, ok := idx[e.Name]
			if !ok {
				i = len(stats)
				idx[e.Name] = i
				stats = append(stats, PhaseStat{Name: e.Name, MinNs: e.Dur, MaxNs: e.Dur})
			}
			s := &stats[i]
			s.Count++
			s.TotalNs += e.Dur
			if e.Dur < s.MinNs {
				s.MinNs = e.Dur
			}
			if e.Dur > s.MaxNs {
				s.MaxNs = e.Dur
			}
			s.ArgSum += e.Arg
		}
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].TotalNs != stats[j].TotalNs {
			return stats[i].TotalNs > stats[j].TotalNs
		}
		return stats[i].Name < stats[j].Name
	})
	return stats
}

// CommTotalNs sums the total duration of every comm/* span — the tracer's
// view of in-collective time (communication + idle), comparable against
// the communicator's Stats breakdown.
func CommTotalNs(stats []PhaseStat) int64 {
	var total int64
	for _, s := range stats {
		if strings.HasPrefix(s.Name, "comm/") {
			total += s.TotalNs
		}
	}
	return total
}

// WritePhaseTable renders the per-phase aggregation as an aligned text
// table, one row per span name plus a trailing comm-total line.
func WritePhaseTable(w io.Writer, tracers []*Tracer) error {
	stats := PhaseSummary(tracers)
	rows := [][]string{{"Phase", "Count", "Total (s)", "Mean (us)", "Min (us)", "Max (us)", "ArgSum"}}
	for _, s := range stats {
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.6f", float64(s.TotalNs)/1e9),
			fmt.Sprintf("%.1f", float64(s.TotalNs)/float64(max64(int64(s.Count), 1))/1e3),
			fmt.Sprintf("%.1f", float64(s.MinNs)/1e3),
			fmt.Sprintf("%.1f", float64(s.MaxNs)/1e3),
			fmt.Sprintf("%d", s.ArgSum),
		})
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
		if ri == 0 {
			if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
				return err
			}
		}
	}
	var dropped uint64
	for _, t := range tracers {
		dropped += t.Dropped()
	}
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d events dropped: ring capacity exceeded)\n", dropped); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "comm total: %.6f s across %d span kinds\n",
		float64(CommTotalNs(stats))/1e9, len(stats))
	return err
}

// WriteMetricsTable renders per-collective counters (one rank per Metrics,
// indexed by position) as an aligned text table, skipping all-zero kinds.
func WriteMetricsTable(w io.Writer, mets []*Metrics) error {
	rows := [][]string{{"Rank", "Collective", "Calls", "WireOut", "WireIn", "SelfBytes", "MaxMsg", "Wait (s)", "Comm (s)"}}
	for rank, m := range mets {
		if m == nil {
			continue
		}
		snap := m.Snapshot()
		for k := Collective(0); k < NumCollectives; k++ {
			s := snap[k]
			if s.Calls == 0 {
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", rank),
				k.String(),
				fmt.Sprintf("%d", s.Calls),
				fmt.Sprintf("%d", s.WireBytesOut),
				fmt.Sprintf("%d", s.WireBytesIn),
				fmt.Sprintf("%d", s.SelfBytes),
				fmt.Sprintf("%d", s.MaxMsgBytes),
				fmt.Sprintf("%.6f", float64(s.WaitNs)/1e9),
				fmt.Sprintf("%.6f", float64(s.CommNs)/1e9),
			})
		}
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
		if ri == 0 {
			if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
				return err
			}
		}
	}
	return nil
}

func lineWidth(widths []int) int {
	total := 0
	for i, w := range widths {
		if i > 0 {
			total += 2
		}
		total += w
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
