package ring

import (
	"testing"
	"time"
)

// obs is one scripted probe observation for the damping tables.
type obs struct {
	see  Health
	want Health // ring health after the observation is applied
}

// TestFlapDamping: table-driven flapping sequences through Prober.observe.
func TestFlapDamping(t *testing.T) {
	cases := []struct {
		name  string
		start Health
		seq   []obs
	}{
		{
			name:  "single blip does not mark down",
			start: Ready,
			seq:   []obs{{Down, Ready}, {Ready, Ready}, {Down, Ready}, {Ready, Ready}},
		},
		{
			name:  "sustained down confirms after K",
			start: Ready,
			seq:   []obs{{Down, Ready}, {Down, Down}},
		},
		{
			name:  "recovery back to ready is also damped",
			start: Down,
			seq:   []obs{{Ready, Down}, {Down, Down}, {Ready, Down}, {Ready, Ready}},
		},
		{
			name:  "draining is immediate despite damping",
			start: Ready,
			seq:   []obs{{Draining, Draining}},
		},
		{
			name:  "recovering is immediate from down",
			start: Down,
			seq:   []obs{{Recovering, Recovering}},
		},
		{
			name:  "first contact from unknown is immediate",
			start: Unknown,
			seq:   []obs{{Down, Down}, {Ready, Down}, {Ready, Ready}},
		},
		{
			name:  "streak does not leak across interleaved states",
			start: Ready,
			seq:   []obs{{Down, Ready}, {Recovering, Recovering}, {Down, Down}},
			// Recovering applies immediately; the subsequent Down is a
			// Recovering→Down transition, which is NOT in the damped pair,
			// so it applies at once.
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New([]Backend{{Name: "b0", Addr: "http://x"}})
			if err != nil {
				t.Fatal(err)
			}
			if tc.start != Unknown {
				r.SetHealth("b0", tc.start, "")
			}
			p := &Prober{Ring: r}
			for i, o := range tc.seq {
				p.observe("b0", o.see, "")
				got, _ := r.HealthOf("b0")
				if got != o.want {
					t.Fatalf("step %d: observed %v, ring says %v, want %v",
						i, o.see, got, o.want)
				}
			}
		})
	}
}

// TestFlapDampingTransitionCallback: damped blips never fire OnTransition;
// the confirmed transition fires exactly once.
func TestFlapDampingTransitionCallback(t *testing.T) {
	r, err := New([]Backend{{Name: "b0", Addr: "http://x"}})
	if err != nil {
		t.Fatal(err)
	}
	r.SetHealth("b0", Ready, "")
	var fired []string
	p := &Prober{Ring: r, OnTransition: func(name string, from, to Health) {
		fired = append(fired, from.String()+"->"+to.String())
	}}
	for _, h := range []Health{Down, Ready, Down, Down, Down} {
		p.observe("b0", h, "")
	}
	if len(fired) != 1 || fired[0] != "ready->down" {
		t.Fatalf("transitions fired = %v, want exactly [ready->down]", fired)
	}
}

// TestJitteredInterval: jittered delays stay within [iv(1−j), iv(1+j)] for
// the prober's jitter j = 0.2 and actually vary.
func TestJitteredInterval(t *testing.T) {
	const iv = 100 * time.Millisecond
	lo, hi := time.Duration(float64(iv)*0.8), time.Duration(float64(iv)*1.2)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		d := jittered(iv)
		if d < lo || d > hi {
			t.Fatalf("jittered(%v, 0.2) = %v outside [%v, %v]", iv, d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays in 200 draws", len(seen))
	}
}
