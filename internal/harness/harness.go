// Package harness builds and runs the paper's evaluation: every table and
// figure of the IPDPS 2016 paper regenerated at configurable scale on the
// in-process cluster, with paper-reported values printed alongside measured
// ones where a direct comparison is meaningful.
//
// Each experiment returns a Report (title, header, rows, notes) that the
// cmd/repro tool renders; benches reuse the same entry points.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Config scales and shapes the experiments. Defaults (see Default) are
// sized for a laptop-class machine; Scale multiplies the default workload
// sizes toward the paper's.
type Config struct {
	// Scale multiplies default graph sizes (1.0 = laptop defaults).
	Scale float64
	// Ranks are the rank counts used by scaling experiments.
	Ranks []int
	// Threads is the per-rank worker count.
	Threads int
	// Seed makes all workloads deterministic.
	Seed uint64
	// TmpDir hosts edge files for the I/O experiments; empty means the
	// OS temp dir.
	TmpDir string
	// File, when set, is the binary edge file EndToEnd reads instead of
	// generating WC-sim (the repro -file flag); n is scanned from it and
	// the file is left in place.
	File string
	// Trace, when non-nil, collects a per-rank span timeline from every
	// rank group the experiments spin up (comm collectives plus analytic
	// iterations). Leave nil to run untraced at zero cost.
	Trace *obs.TraceSet
	// Traverse is the frontier policy armed on every rank; the zero value
	// is the adaptive engine. The hybrid experiment overrides the mode per
	// measurement cell.
	Traverse core.TraversalMode
	// Delta, when non-zero, adds a fixed bucket-width variant to the delta
	// experiment's Δ sweep (the sweep always runs Δ=1, auto, and 2·mean).
	Delta uint64
	// Partition, when non-nil, overrides the default partitioning of the
	// single-graph experiments (the repro -partition flag). Experiments
	// that sweep partition kinds as their independent variable (fig2,
	// fig3, table4, partitions, scale2d) ignore it.
	Partition *partition.Kind
}

// Default returns the laptop-scale configuration.
func Default() Config {
	return Config{
		Scale:   1.0,
		Ranks:   []int{1, 2, 4, 8},
		Threads: 1,
		Seed:    0xC0FFEE,
	}
}

// pick returns the experiment's default partitioning unless the user
// overrode it with -partition.
func (cfg Config) pick(def partition.Kind) partition.Kind {
	if cfg.Partition != nil {
		return *cfg.Partition
	}
	return def
}

// scaled returns base scaled by cfg.Scale, at least min.
func (cfg Config) scaled(base uint64, min uint64) uint64 {
	v := uint64(float64(base) * cfg.Scale)
	if v < min {
		v = min
	}
	return v
}

// maxRanks returns the largest configured rank count.
func (cfg Config) maxRanks() int {
	m := 1
	for _, r := range cfg.Ranks {
		if r > m {
			m = r
		}
	}
	return m
}

// Report is one rendered experiment.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
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

// secs formats a duration as seconds with millisecond resolution.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// engi formats a large count with engineering suffixes (K/M/B), matching
// the paper's table style.
func engi(v uint64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.2fB", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fK", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
