package main

import (
	"fmt"
	"sort"
)

// summary holds quantiles of one set of observations, computed from the
// exact samples (never from histogram buckets, whose interpolation can
// report a quantile above every observation).
type summary struct {
	N             int
	P50, P90, Max float64
}

// quantile returns the q-quantile of ascending samples by linear
// interpolation between the closest ranks, so it lies within their range.
// It returns 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{N: len(s), P50: quantile(s, 0.5), P90: quantile(s, 0.9), Max: s[len(s)-1]}
}

// summarizeRounds summarizes a round-robin run, where a round runs every
// instance once: each quantile is the median over rounds of that round's
// quantile, and N and Max count every sample. When instance sizes leave a
// gap at a quantile, as the Table I mix does at the median, the pooled
// quantile rests on the largest sample below the gap and the smallest above
// it over the whole run, which swing with every slow or fast stretch; a
// round's quantile rests on that round's own samples, and the median over
// rounds ignores the odd slow or fast round.
func summarizeRounds(rounds [][]float64) summary {
	var all, p50, p90 []float64
	for _, r := range rounds {
		s := summarize(r)
		all = append(all, r...)
		p50 = append(p50, s.P50)
		p90 = append(p90, s.P90)
	}
	s := summarize(all)
	s.P50, s.P90 = median(p50), median(p90)
	return s
}

func median(samples []float64) float64 { return summarize(samples).P50 }

func sum(samples []float64) float64 {
	var total float64
	for _, v := range samples {
		total += v
	}
	return total
}

// beyondP90 counts the samples strictly above the p90, so a report can show
// that its tail quantile rests on at least ten observations.
func (s summary) beyondP90(samples []float64) int {
	k := 0
	for _, v := range samples {
		if v > s.P90 {
			k++
		}
	}
	return k
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d p50=%.4f p90=%.4f max=%.4f", s.N, s.P50, s.P90, s.Max)
}
