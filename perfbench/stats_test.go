package main

import (
	"math"
	"strings"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileRefusesP99BelowThousandSamples(t *testing.T) {
	if _, err := percentile(ramp(999), 99); err == nil || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("p99 of 999 samples: err = %v, want a refusal naming 1000 samples", err)
	}
	v, err := percentile(ramp(1000), 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if v != 990 { // nearest rank: ten samples (991..1000) lie beyond it
		t.Fatalf("p99 of 1..1000 = %v, want 990", v)
	}
	if _, err := percentile(ramp(5), 99); err == nil {
		t.Fatal("p99 of five samples accepted")
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		xs := ramp(c.n)
		p, v, ok := highestPercentile(xs)
		if ok != c.ok || p != c.want {
			t.Errorf("n=%d: highest percentile p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.want, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: p%g = %v has %d samples beyond it, want ≥%d", c.n, p, v, beyond, minTail)
		}
	}
}

func TestNeededFor(t *testing.T) {
	for p, want := range map[float64]int{50: 20, 90: 100, 99: 1000} {
		if got := neededFor(p); got != want {
			t.Errorf("neededFor(%g) = %d, want %d", p, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}
