package main

import (
	"testing"
	"time"
)

func TestParseBackends(t *testing.T) {
	bks, err := parseBackends("b0=127.0.0.1:9000, b1=127.0.0.1:9001 ,b2=http://127.0.0.1:9002/")
	if err != nil {
		t.Fatal(err)
	}
	if len(bks) != 3 {
		t.Fatalf("parsed %d backends, want 3", len(bks))
	}
	want := map[string]string{
		"b0": "http://127.0.0.1:9000",
		"b1": "http://127.0.0.1:9001",
		"b2": "http://127.0.0.1:9002",
	}
	for _, b := range bks {
		if want[b.Name] != b.Addr {
			t.Errorf("backend %s has addr %q, want %q", b.Name, b.Addr, want[b.Name])
		}
	}
	for _, bad := range []string{"", "b0", "=addr", "b0="} {
		if _, err := parseBackends(bad); err == nil {
			t.Errorf("parseBackends(%q) accepted", bad)
		}
	}
}

// defaults mirrors main()'s flag defaults; tests mutate one flag at a time.
func defaults() config {
	return config{
		addr:       "127.0.0.1:0",
		backends:   "b0=127.0.0.1:9000",
		probeEvery: 500 * time.Millisecond,
	}
}

func TestValidateDefaults(t *testing.T) {
	if err := defaults().validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*config)
	}{
		{"zero probe interval", func(c *config) { c.probeEvery = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaults()
			tc.mut(&cfg)
			if err := cfg.validate(); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
}
