package main

import (
	"math"
	"math/rand"
	"testing"
)

// No reported quantile may exceed the largest observation, whatever the
// sample count or shape — the property the telemetry histograms' bucket
// interpolation violates.
func TestQuantilesNeverExceedLargestSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 300; n++ {
		samples := make([]float64, n)
		for i := range samples {
			// Heavy-tailed, like op latencies over mixed instance sizes.
			samples[i] = rng.ExpFloat64() * float64(1+rng.Intn(1000))
		}
		s := summarize(samples)
		largest := samples[0]
		for _, v := range samples {
			largest = max(largest, v)
		}
		if s.N != n || s.Max != largest {
			t.Fatalf("n=%d: summary %+v, want N=%d Max=%v", n, s, n, largest)
		}
		if s.P50 > largest || s.P90 > largest || s.P50 > s.P90 {
			t.Fatalf("n=%d: quantiles out of order: %+v", n, s)
		}
	}
}

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(sorted, 0.5); got != 5.5 {
		t.Fatalf("p50 = %v, want 5.5", got)
	}
	if got := quantile(sorted, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Fatalf("p90 = %v, want 9.1", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
	if s := summarize([]float64{3, 1, 2}); s.beyondP90([]float64{3, 1, 2}) != 1 {
		t.Fatalf("beyondP90 of %+v != 1", s)
	}
}

// Rounds of six small and six large ops put the median in the gap between
// them. One round whose largest small op is slow moves the pooled median by
// half the slowdown; the per-round summary does not move.
func TestRoundSummaryIgnoresOneSlowRound(t *testing.T) {
	var rounds [][]float64
	for r := 0; r < 10; r++ {
		var round []float64
		for i := 0; i < 6; i++ {
			round = append(round, 10+float64(i)/10, 100+float64(i)/10)
		}
		rounds = append(rounds, round)
	}
	base := summarizeRounds(rounds)
	rounds[3][10] = 60 // the round's largest small op
	slow := summarizeRounds(rounds)
	if slow.P50 != base.P50 || slow.P90 != base.P90 {
		t.Fatalf("per-round summary moved: %+v -> %+v", base, slow)
	}
	var all []float64
	for _, r := range rounds {
		all = append(all, r...)
	}
	if pooled := summarize(all); pooled.P50-base.P50 < 10 {
		t.Fatalf("pooled p50 %v barely moved from %v; the test no longer shows the gap", pooled.P50, base.P50)
	}
	if slow.N != 120 || slow.Max != base.Max {
		t.Fatalf("N/Max = %d/%v, want 120/%v", slow.N, slow.Max, base.Max)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 80, End: 90},
	}
	self := selfMs(spans)
	if want := 40.0 / 1e6; self[1] != want {
		t.Fatalf("self(1) = %v, want %v", self[1], want)
	}
	if want := 30.0 / 1e6; self[2] != want {
		t.Fatalf("self(2) = %v, want %v", self[2], want)
	}
}
