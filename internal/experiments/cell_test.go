package experiments

import (
	"context"
	"testing"

	"repro/internal/spec"
)

func TestRunCellMultiTargetTrace(t *testing.T) {
	out, err := RunCell(context.Background(), spec.Axes{Algo: "cdpf", Density: 20, Seed: 31, Targets: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace.Len() == 0 {
		t.Fatal("multi-target cell produced no trace")
	}
	if out.MeanLiveTracks <= 0 {
		t.Fatalf("mean live tracks %v", out.MeanLiveTracks)
	}
	// The lead-target trace's truth starts on lane 0 (y = 50).
	if out.Trace.Records[0].TruthY != 50 {
		t.Fatalf("lead-target lane Y = %v, want 50", out.Trace.Records[0].TruthY)
	}
}

func TestRunCellCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCell(ctx, spec.Axes{Density: 5}); err == nil {
		t.Fatal("cancelled context should interrupt the run")
	}
}

func TestRunCellRejectsInvalidAxes(t *testing.T) {
	if _, err := RunCell(context.Background(), spec.Axes{Loss: 2}); err == nil {
		t.Fatal("invalid axes should be rejected")
	}
}
