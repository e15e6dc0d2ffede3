package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// copyingWindowAvg is the copying WindowAvg that the in-place read
// replaced: it snapshots the raw ring with Raw and the 10s tier with
// Buckets, then scans the copies. Kept as the oracle WindowAvg must match
// bit for bit.
func copyingWindowAvg(s *Series, from, to time.Time) (avg float64, count uint64) {
	raw := s.Raw()
	if len(raw) > 0 && !raw[0].Time.After(from) {
		var sum float64
		for _, p := range raw {
			if p.Time.Before(from) || p.Time.After(to) {
				continue
			}
			sum += p.Value
			count++
		}
		if count > 0 {
			return sum / float64(count), count
		}
		return 0, 0
	}
	var sum float64
	for _, b := range s.Buckets(Tier10s) {
		if b.Start.Before(from) || b.Start.After(to) || b.Count == 0 {
			continue
		}
		sum += b.Sum
		count += b.Count
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}

// TestWindowAvgMatchesCopyingScan drives seeded append sequences —
// small and default rings that wrap, runs of out-of-order and equal
// timestamps, gaps that leave the raw ring short of the window so the
// rollup fallback answers — and after every append compares WindowAvg
// with the copying oracle on windows that straddle the raw/rollup
// boundary, sit exactly on point times, lie outside the data, or are
// empty (to before from).
func TestWindowAvgMatchesCopyingScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{1, 2, 7, 64, 0}[seed%5] // 0 = DefaultRawCapacity
		st := NewStore(Options{RawCapacity: capacity, TierCapacity: [numTiers]int{5 + int(seed%3)*40, 0}})
		s := st.Series("x")
		disorder := []float64{0, 0.02, 0.3}[seed%3]
		now := t0
		var times []time.Time
		n := 200 + rng.Intn(1200)
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < disorder:
				now = now.Add(-time.Duration(rng.Int63n(int64(30 * time.Second))))
			case r < disorder+0.05:
				// equal timestamp
			case r < disorder+0.07:
				now = now.Add(time.Duration(rng.Int63n(int64(10 * time.Minute))))
			default:
				now = now.Add(time.Duration(1+rng.Int63n(int64(2*time.Second))) / time.Millisecond * time.Millisecond)
			}
			s.Append(now, rng.NormFloat64()*1e3)
			times = append(times, now)
			for q := 0; q < 6; q++ {
				var from time.Time
				if q%2 == 0 {
					from = times[rng.Intn(len(times))] // exactly on a point
				} else {
					from = now.Add(-time.Duration(rng.Int63n(int64(20 * time.Minute))))
				}
				to := from.Add(time.Duration(rng.Int63n(int64(6*time.Minute))) - 5*time.Second)
				if q == 5 {
					to = now
				}
				gotAvg, gotN := s.WindowAvg(from, to)
				wantAvg, wantN := copyingWindowAvg(s, from, to)
				if gotN != wantN || math.Float64bits(gotAvg) != math.Float64bits(wantAvg) {
					t.Fatalf("seed %d append %d window [%v, %v]: WindowAvg = (%v, %d), copying scan = (%v, %d)",
						seed, i, from.Sub(t0), to.Sub(t0), gotAvg, gotN, wantAvg, wantN)
				}
			}
		}
	}
}

// TestWindowAvgEmptySeries: no data reads as (0, 0) on both paths.
func TestWindowAvgEmptySeries(t *testing.T) {
	s := NewStore(Options{}).Series("x")
	if avg, n := s.WindowAvg(t0, t0.Add(time.Hour)); avg != 0 || n != 0 {
		t.Fatalf("empty series WindowAvg = (%v, %d), want (0, 0)", avg, n)
	}
}

// TestWindowAvgAllocationFree pins the in-place read at zero
// allocations on the raw path, the out-of-order scan and the rollup
// fallback.
func TestWindowAvgAllocationFree(t *testing.T) {
	s := NewStore(Options{RawCapacity: 64}).Series("x")
	for i := 0; i < 600; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Second), float64(i%2))
	}
	windows := map[string][2]time.Time{
		"raw":    {t0.Add(9 * time.Minute), t0.Add(10 * time.Minute)},
		"rollup": {t0, t0.Add(10 * time.Minute)},
	}
	check := func(label string) {
		for name, w := range windows {
			if a := testing.AllocsPerRun(100, func() { s.WindowAvg(w[0], w[1]) }); a != 0 {
				t.Errorf("%s %s WindowAvg allocs = %v, want 0", label, name, a)
			}
		}
	}
	check("sorted")
	s.Append(t0.Add(595*time.Second), 1) // out of order: full-scan path
	check("unsorted")
}
