package telemetry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// viewModel is the map-per-field LatestPower the slot-indexed view
// replaced, kept as the reference its accessors must agree with.
type viewModel struct {
	power  map[string]power.Watts
	stamps map[string]Stamps
	event  map[string]uint64
	seq    uint64 // last sample-arrive sequence the recorder assigned
}

func newViewModel() *viewModel {
	return &viewModel{
		power:  make(map[string]power.Watts),
		stamps: make(map[string]Stamps),
		event:  make(map[string]uint64),
	}
}

func (m *viewModel) update(s Sample, recorded bool) {
	if !s.Valid {
		return
	}
	if st, ok := m.stamps[s.Device]; ok && !s.MeasuredAt.After(st.MeasuredAt) {
		return
	}
	m.power[s.Device] = s.Power
	m.stamps[s.Device] = Stamps{MeasuredAt: s.MeasuredAt, PublishedAt: s.PublishedAt, DequeuedAt: s.DequeuedAt}
	if recorded {
		m.seq++
		m.event[s.Device] = m.seq
	}
}

// TestLatestPowerMatchesModel drives seeded random Update sequences —
// out-of-order and equal MeasuredAt, invalid samples, devices that first
// report mid-stream — through the view with the recorder off and on, and
// after every update checks each accessor against the map model.
func TestLatestPowerMatchesModel(t *testing.T) {
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, recorded := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			view, model := NewLatestPower(), newViewModel()
			var rec *recorder.Recorder
			if recorded {
				rec = recorder.New(16)
				view.SetRecorder(rec, "rack-view")
			}
			devices := make([]string, 24)
			for i := range devices {
				devices[i] = fmt.Sprintf("rack-%02d", i)
			}
			for step := 0; step < 600; step++ {
				// The device pool widens as the stream runs, so devices
				// keep reporting for the first time mid-stream.
				pool := 1 + step*len(devices)/400
				if pool > len(devices) {
					pool = len(devices)
				}
				// A narrow time range makes equal and out-of-order
				// MeasuredAt common.
				at := base.Add(time.Duration(rng.Intn(40)) * 250 * time.Millisecond)
				s := Sample{
					Device:      devices[rng.Intn(pool)],
					Power:       power.Watts(rng.Intn(20000)),
					Valid:       rng.Intn(5) > 0,
					MeasuredAt:  at,
					PublishedAt: at.Add(time.Duration(rng.Intn(3)) * time.Millisecond),
					Event:       uint64(step),
				}
				if rng.Intn(4) == 0 {
					s.PublishedAt = time.Time{} // a producer that predates stamping
				} else {
					s.DequeuedAt = s.PublishedAt.Add(time.Millisecond)
				}
				view.Update(s)
				model.update(s, recorded)
				now := base.Add(time.Duration(rng.Intn(20)) * time.Second)
				ctx := fmt.Sprintf("recorded=%v seed %d step %d", recorded, seed, step)
				checkViewAgainstModel(t, ctx, view, model, devices, now)
				if recorded && rec.Seq() != model.seq {
					t.Fatalf("%s: recorder at seq %d, model accepted %d samples", ctx, rec.Seq(), model.seq)
				}
			}
		}
	}
}

func checkViewAgainstModel(t *testing.T, ctx string, view *LatestPower, m *viewModel, devices []string, now time.Time) {
	t.Helper()
	for _, d := range devices {
		wantStamps, want := m.stamps[d]
		v, at, ok := view.Get(d)
		if ok != want || v != m.power[d] || !at.Equal(wantStamps.MeasuredAt) {
			t.Fatalf("%s: Get(%s) = %v,%v,%v; model %v,%v,%v", ctx, d, v, at, ok, m.power[d], wantStamps.MeasuredAt, want)
		}
		v, at, ev, ok := view.GetEvent(d)
		if ok != want || v != m.power[d] || !at.Equal(wantStamps.MeasuredAt) || ev != m.event[d] {
			t.Fatalf("%s: GetEvent(%s) = %v,%v,%d,%v; model event %d", ctx, d, v, at, ev, ok, m.event[d])
		}
		st, ok := view.GetStamps(d)
		if ok != want || st != wantStamps {
			t.Fatalf("%s: GetStamps(%s) = %+v,%v; model %+v,%v", ctx, d, st, ok, wantStamps, want)
		}
		age, ok := view.Age(d, now)
		if ok != want || (want && age != now.Sub(wantStamps.MeasuredAt)) || (!want && age != 0) {
			t.Fatalf("%s: Age(%s) = %v,%v; model installed %v", ctx, d, age, ok, want)
		}
	}
	var worst time.Duration
	any := false
	for _, st := range m.stamps {
		if age := now.Sub(st.MeasuredAt); !any || age > worst {
			worst, any = age, true
		}
	}
	if got, ok := view.Oldest(now); ok != any || got != worst {
		t.Fatalf("%s: Oldest = %v,%v; model %v,%v", ctx, got, ok, worst, any)
	}
	if view.Count() != len(m.power) {
		t.Fatalf("%s: Count = %d; model %d", ctx, view.Count(), len(m.power))
	}
	snap := view.Snapshot()
	if len(snap) != len(m.power) {
		t.Fatalf("%s: Snapshot has %d devices; model %d", ctx, len(snap), len(m.power))
	}
	for d, w := range m.power {
		if got, ok := snap[d]; !ok || got != w {
			t.Fatalf("%s: Snapshot[%s] = %v,%v; model %v", ctx, d, got, ok, w)
		}
	}
}
