package baseline

import (
	"testing"

	"repro/internal/mathx"
	"repro/internal/wsn"
)

// TestReleaseTwiceIsNoOp checks that releasing an SDPF a second time hands
// nothing back again: two later filters must not share a node table.
func TestReleaseTwiceIsNoOp(t *testing.T) {
	nw, err := wsn.NewNetwork(wsn.DefaultConfig(5), mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSDPF(nw, DefaultSDPFConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release()
	s1, _ := NewSDPF(nw, DefaultSDPFConfig())
	s2, _ := NewSDPF(nw, DefaultSDPFConfig())
	if &s1.nodes[0] == &s2.nodes[0] {
		t.Error("two SDPFs share a recycled node table after a double Release")
	}
}
