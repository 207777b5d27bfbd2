package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.SD != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Median != 42 || s.Min != 42 || s.Max != 42 || s.SD != 0 {
		t.Fatalf("bad single-sample summary: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// 2, 4, 4, 4, 5, 5, 7, 9: mean 5, population sd 2, sample sd ~2.138.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if !almostEq(s.SD, 2.1380899, 1e-6) {
		t.Errorf("sd = %v, want ~2.138", s.SD)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v, want 4.5", s.Median)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("range = [%v,%v], want [2,9]", s.Min, s.Max)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if Quantile(sorted, 0) != 1 {
		t.Errorf("q0 = %v", Quantile(sorted, 0))
	}
	if Quantile(sorted, 1) != 4 {
		t.Errorf("q1 = %v", Quantile(sorted, 1))
	}
	if Quantile(sorted, 0.5) != 2.5 {
		t.Errorf("q0.5 = %v", Quantile(sorted, 0.5))
	}
}

func TestQuantileNaNOnEmpty(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("expected NaN for empty input")
	}
}

func TestPercentileMatchesMedian(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if Percentile(xs, 50) != 5 {
		t.Fatalf("p50 = %v, want 5", Percentile(xs, 50))
	}
}

// Property: min ≤ median ≤ max and min ≤ mean ≤ max for any sample.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 && s.SD >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
			}
			prev = v
		}
	}
}

func TestRMSE(t *testing.T) {
	a := []float64{0, 1, 2, 3}
	if RMSE(a, a) != 0 {
		t.Error("RMSE of identical slices should be 0")
	}
	b := []float64{1, 2, 3, 4}
	if !almostEq(RMSE(a, b), 1, 1e-12) {
		t.Errorf("RMSE = %v, want 1", RMSE(a, b))
	}
}

func TestRMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if !almostEq(Pearson(a, b), 1, 1e-12) {
		t.Errorf("perfect correlation = %v", Pearson(a, b))
	}
	c := []float64{10, 8, 6, 4, 2}
	if !almostEq(Pearson(a, c), -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", Pearson(a, c))
	}
	if !math.IsNaN(Pearson(a, []float64{1, 1, 1, 1, 1})) {
		t.Error("zero-variance input should yield NaN")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{30, 676, 56})
	got := s.String()
	if got == "" {
		t.Fatal("empty string")
	}
}
