package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

type repeatOptions struct {
	workload  string
	seed      uint64
	seconds   float64
	n         int
	save      string
	against   string
	childArgs []string
}

// runSet is one set of repeated runs: per workload, one metric map per run,
// run i on seed Seed+i.
type runSet struct {
	Seed    uint64                          `json:"seed"`
	Seconds float64                         `json:"seconds"`
	Runs    map[string][]map[string]float64 `json:"runs"`
}

// runRepeat runs each workload n times, one child process per run, prints
// every end-to-end metric's median, quartiles and spread against its bound,
// and with against checks that this set's medians are within bound of the
// saved set's.
func runRepeat(ctx context.Context, m *manifest, opt repeatOptions, stdout io.Writer) error {
	if opt.n < 2 {
		return errors.New("-repeat needs at least 2 runs for quartiles")
	}
	names := workloadNames()
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	set := runSet{Seed: opt.seed, Seconds: opt.seconds, Runs: make(map[string][]map[string]float64)}
	var bad []string
	for _, w := range names {
		for i := 0; i < opt.n; i++ {
			r, err := runChild(ctx, w, opt.seed+uint64(i), opt.seconds, false, opt.childArgs)
			if err != nil {
				return err
			}
			if !r.Correct || r.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s seed %d: correct=%v failed=%d", w, opt.seed+uint64(i), r.Correct, r.Failed))
			}
			vals := make(map[string]float64, len(r.Metrics))
			for k, v := range r.Metrics {
				vals[k] = v.Value
			}
			set.Runs[w] = append(set.Runs[w], vals)
		}
	}
	printSpread(m, set, stdout)
	if opt.save != "" {
		if err := writeJSON(opt.save, set); err != nil {
			return err
		}
	}
	if opt.against != "" {
		data, err := os.ReadFile(opt.against)
		if err != nil {
			return err
		}
		var base runSet
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("%s: %w", opt.against, err)
		}
		bad = append(bad, compareSets(m, base, set, stdout)...)
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

func column(runs []map[string]float64, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r[metric])
	}
	return out
}

// printSpread prints each metric's quartiles and its spread, the distance
// between the quartiles as a share of the median, next to its bound.
func printSpread(m *manifest, set runSet, w io.Writer) {
	fmt.Fprintf(w, "%-11s %-15s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range workloadNames() {
		runs := set.Runs[name]
		if len(runs) < 2 {
			continue
		}
		for _, d := range m.EndToEnd {
			q1, q2, q3 := quartiles(column(runs, d.Name))
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Fprintf(w, "%-11s %-15s %12s %12s %12s %8.4f %6.3f\n", name, d.Name,
				formatValue(q1), formatValue(q2), formatValue(q3), spread, *d.Bound)
		}
	}
}

// compareSets reports, per workload and end-to-end metric, whether set b's
// median is worse than set a's by more than the metric's bound, and returns
// one line per disagreement.
func compareSets(m *manifest, a, b runSet, w io.Writer) []string {
	var bad []string
	for _, name := range workloadNames() {
		ra, rb := a.Runs[name], b.Runs[name]
		if len(ra) < 2 || len(rb) < 2 {
			continue
		}
		for _, d := range m.EndToEnd {
			_, ma, _ := quartiles(column(ra, d.Name))
			_, mb, _ := quartiles(column(rb, d.Name))
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "agree"
			if worse > *d.Bound {
				verdict = "WORSE"
				bad = append(bad, fmt.Sprintf("%s %s worse by %.1f%% (bound %.1f%%)", name, d.Name, 100*worse, 100**d.Bound))
			}
			fmt.Fprintf(w, "%-11s %-15s %12s -> %12s  %+7.2f%% worse (bound %4.1f%%)  %s\n",
				name, d.Name, formatValue(ma), formatValue(mb), 100*worse, 100**d.Bound, verdict)
		}
	}
	return bad
}
