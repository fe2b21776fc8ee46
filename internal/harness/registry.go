package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	// Key is the command-line name (table1, fig3, ...).
	Key string
	// Run executes the experiment.
	Run func(Config) (*Report, error)
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", Table1},
		{"table3", Table3},
		{"table4", Table4},
		{"table5", Table5},
		{"fig1", Fig1},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"priorwork", PriorWork},
		{"partitions", Partitions},
		{"degrees", Degrees},
		{"ablations", Ablations},
		{"endtoend", EndToEnd},
		{"hybrid", Hybrid},
		{"delta", Delta},
		{"scale2d", Scale2D},
	}
}

// Lookup finds an experiment by key.
func Lookup(key string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Key == key {
			return e, nil
		}
	}
	keys := make([]string, 0)
	for _, e := range Experiments() {
		keys = append(keys, e.Key)
	}
	sort.Strings(keys)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have: %s, all)", key, strings.Join(keys, ", "))
}

// RunAll executes every experiment in order, rendering each to w.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range Experiments() {
		rep, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Key, err)
		}
		if err := rep.Render(w); err != nil {
			return err
		}
	}
	return nil
}
