package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkManifestMatchesProgram validates the repository's
// BENCHMARK.json: its own rules, and that it declares exactly the workloads
// and metrics this program produces.
func TestBenchmarkManifestMatchesProgram(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.checkProgram(); err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) > maxEndToEnd || len(m.PerLayer) > maxPerLayer {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed %d and %d", len(m.EndToEnd), len(m.PerLayer), maxEndToEnd, maxPerLayer)
	}
	for _, d := range append(append([]metricDecl(nil), m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
	}
	for _, p := range m.Paths {
		if _, err := os.Stat("../" + p); err != nil {
			t.Errorf("path %s: %v", p, err)
		}
	}
}

func TestManifestRejects(t *testing.T) {
	base, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(base, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	e2e := func(m map[string]any) []any { return m["end_to_end"].([]any) }
	layer := func(m map[string]any) []any { return m["per_layer"].([]any) }
	metric := func(name string) map[string]any {
		return map[string]any{"name": name, "unit": "ms", "better": "lower"}
	}
	for name, data := range map[string][]byte{
		"unknown key":      mutate(func(m map[string]any) { m["extra"] = 1 }),
		"bad metric name":  mutate(func(m map[string]any) { e2e(m)[1].(map[string]any)["name"] = "steps per s" }),
		"leading dot":      mutate(func(m map[string]any) { layer(m)[0].(map[string]any)["name"] = ".fleet" }),
		"duplicate name":   mutate(func(m map[string]any) { layer(m)[1].(map[string]any)["name"] = "fleet.busy_share" }),
		"bound too large":  mutate(func(m map[string]any) { e2e(m)[1].(map[string]any)["bound"] = 0.3 }),
		"missing bound":    mutate(func(m map[string]any) { delete(e2e(m)[1].(map[string]any), "bound") }),
		"layer bound":      mutate(func(m map[string]any) { layer(m)[0].(map[string]any)["bound"] = 0.1 }),
		"bad direction":    mutate(func(m map[string]any) { e2e(m)[1].(map[string]any)["better"] = "faster" }),
		"no setup_s":       mutate(func(m map[string]any) { m["end_to_end"] = e2e(m)[1:] }),
		"absolute command": mutate(func(m map[string]any) { m["command"] = []any{"/bin/bash", "bench/run.sh"} }),
		"parent path":      mutate(func(m map[string]any) { m["paths"] = []any{"../bench"} }),
		"one workload":     mutate(func(m map[string]any) { m["workloads"] = m["workloads"].([]any)[:1] }),
		"too many end-to-end": mutate(func(m map[string]any) {
			for i := 0; i < maxEndToEnd; i++ {
				d := metric("extra" + strings.Repeat("x", i+1))
				d["bound"] = 0.1
				m["end_to_end"] = append(e2e(m), d)
			}
		}),
		"too many per-layer": mutate(func(m map[string]any) {
			for i := 0; i < maxPerLayer; i++ {
				m["per_layer"] = append(layer(m), metric("layer.extra"+strings.Repeat("x", i%50)+string(rune('a'+i/50))))
			}
		}),
	} {
		if _, err := parseManifest(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestManifestMustDeclareEveryProducedMetric catches a metric added to the
// program but not to BENCHMARK.json, and the reverse.
func TestManifestMustDeclareEveryProducedMetric(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dropped := *m
	dropped.PerLayer = m.PerLayer[1:]
	if err := dropped.checkProgram(); err == nil {
		t.Error("a produced per-layer metric missing from the manifest was accepted")
	}
	extra := *m
	extra.Workloads = append(append([]workloadDecl(nil), m.Workloads...), workloadDecl{Name: "ghost", Why: "x"})
	if err := extra.checkProgram(); err == nil {
		t.Error("a declared workload the program lacks was accepted")
	}
}
