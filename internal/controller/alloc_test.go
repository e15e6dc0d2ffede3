package controller

import (
	"context"
	"testing"

	"flex/internal/power"
	"flex/internal/telemetry"
)

// cleanRoundAllocs is what one non-overdraw round allocates: the UPS power
// and arrival-event vectors snapshotUPS returns. The rack view and the
// acted set are copied only when a round plans.
const cleanRoundAllocs = 2

// TestCleanRoundAllocations pins the allocations of a StepContext that
// finds no overdraw — the round every room runs every 500ms almost all
// the time — planning from the raw rack view and from the estimator. A
// per-round rack snapshot (one map of every rack) fails it.
func TestCleanRoundAllocations(t *testing.T) {
	for _, estimated := range []bool{false, true} {
		h := newHarness(t)
		c := h.controller("ctl-1")
		if estimated {
			c.cfg.RackEstimator = telemetry.NewEWMAEstimator(0.25)
			for _, r := range h.racks {
				c.cfg.RackEstimator.Update(telemetry.Sample{Device: r.ID, Power: r.Allocated, Valid: true, MeasuredAt: h.now})
			}
		}
		h.feed([]power.Watts{80 * power.KW, 80 * power.KW, 80 * power.KW, 80 * power.KW})
		ctx := context.Background()
		allocs := testing.AllocsPerRun(200, func() {
			if out := c.StepContext(ctx); out.Overdraw {
				t.Fatal("fixture overdraws")
			}
		})
		if allocs != cleanRoundAllocs {
			t.Fatalf("estimator=%v: clean StepContext allocated %.2f times per round, want %d", estimated, allocs, cleanRoundAllocs)
		}
	}
}
