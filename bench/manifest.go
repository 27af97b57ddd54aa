package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
)

// manifest is BENCHMARK.json: the command, the workloads, and every metric
// with its unit, direction and (end-to-end only) regression bound.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

const (
	maxManifestBytes = 64 << 10
	maxEndToEnd      = 16
	maxPerLayer      = 128
	maxBound         = 0.25
)

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// parseManifest decodes strictly (unknown keys are errors) and validates the
// file's own rules; checkProgram then matches it against this program.
func parseManifest(data []byte) (*manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("manifest is %d bytes, limit %d", len(data), maxManifestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the manifest object")
	}
	return &m, m.validate()
}

func (m *manifest) validate() error {
	if n := len(m.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || hasDotDot(c) {
			return fmt.Errorf("command string %q: at most 200 characters, no absolute or parent path", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || hasDotDot(p) {
			return fmt.Errorf("path %q is not a relative path of letters, digits, _ . - /", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(m.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q: want a letter or digit, then at most 63 of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one non-empty line of at most 200 characters", w.Name)
		}
	}
	largest := 0.0
	for i, ms := range [][]metricDecl{m.EndToEnd, m.PerLayer} {
		for _, d := range ms {
			if err := use(d.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("metric %s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				return fmt.Errorf("metric %s: better %q, want lower or higher", d.Name, d.Better)
			}
			switch {
			case i == 1 && d.Bound != nil:
				return fmt.Errorf("per-layer metric %s has a bound", d.Name)
			case i == 0 && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > maxBound):
				return fmt.Errorf("end-to-end metric %s needs a bound in (0, %g]", d.Name, maxBound)
			case i == 0:
				largest = max(largest, *d.Bound)
			}
		}
	}
	setup, ok := m.endToEnd("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		return fmt.Errorf("end-to-end metric setup_s (unit s, better lower) is required")
	}
	if *setup.Bound < largest {
		return fmt.Errorf("setup_s bound %g is not the largest (%g)", *setup.Bound, largest)
	}
	return nil
}

func hasDotDot(p string) bool {
	for _, part := range strings.Split(p, "/") {
		if part == ".." {
			return true
		}
	}
	return false
}

func (m *manifest) endToEnd(name string) (metricDecl, bool) {
	for _, d := range m.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}

// checkProgram requires the manifest and this program to agree exactly: the
// same workloads, the same end-to-end metrics, the same per-layer metrics.
func (m *manifest) checkProgram() error {
	var wl []string
	for _, w := range m.Workloads {
		wl = append(wl, w.Name)
	}
	if err := sameSet("workloads", wl, workloadNames()); err != nil {
		return err
	}
	if err := sameSet("end-to-end metrics", declNames(m.EndToEnd), endToEndMetrics); err != nil {
		return err
	}
	return sameSet("per-layer metrics", declNames(m.PerLayer), layerMetrics)
}

func declNames(ds []metricDecl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

func sameSet(what string, declared, program []string) error {
	in := make(map[string]bool)
	for _, n := range declared {
		in[n] = true
	}
	for _, n := range program {
		if !in[n] {
			return fmt.Errorf("%s: %s is produced but not declared in BENCHMARK.json", what, n)
		}
		delete(in, n)
	}
	for n := range in {
		return fmt.Errorf("%s: %s is declared in BENCHMARK.json but not produced", what, n)
	}
	return nil
}
