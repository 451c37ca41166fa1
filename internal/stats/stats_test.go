package stats

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	s := NewSample(2, 4, 4, 4, 5, 5, 7, 9)
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if !almost(s.Std(), 2, 1e-12) {
		t.Errorf("Std = %v, want 2", s.Std())
	}
	if s.MeanStd(1) != "5.0±2.0" {
		t.Errorf("MeanStd = %q", s.MeanStd(1))
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	for name, v := range map[string]float64{
		"Mean": s.Mean(), "Std": s.Std(), "Min": s.Min(), "Max": s.Max(),
		"Median": s.Median(), "FractionBelow": s.FractionBelow(1),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s on empty sample = %v, want NaN", name, v)
		}
	}
	if s.CDF() != nil {
		t.Error("CDF on empty sample should be nil")
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSample(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleValue(t *testing.T) {
	s := NewSample(42)
	for _, p := range []float64{0, 5, 50, 95, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Errorf("Percentile(%v) = %v, want 42", p, got)
		}
	}
}

func TestAddInvalidatesSortCache(t *testing.T) {
	s := NewSample(5, 1)
	_ = s.Min() // forces sort
	s.Add(0)
	if s.Min() != 0 {
		t.Errorf("Min after Add = %v, want 0", s.Min())
	}
	if s.Max() != 5 {
		t.Errorf("Max after Add = %v, want 5", s.Max())
	}
}

func TestFractionBelow(t *testing.T) {
	s := NewSample(10, 20, 30, 40)
	cases := []struct{ x, want float64 }{
		{5, 0}, {10, 0.25}, {25, 0.5}, {40, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.x); !almost(got, c.want, 1e-12) {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFMonotoneAndComplete(t *testing.T) {
	s := NewSample(3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
	pts := s.CDF()
	if pts[len(pts)-1].Fraction != 1 {
		t.Errorf("CDF does not reach 1: %v", pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value <= pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
			t.Errorf("CDF not strictly increasing at %d: %v -> %v", i, pts[i-1], pts[i])
		}
	}
	// Duplicates collapse: 10 values, 7 distinct (1,2,3,4,5,6,9).
	if len(pts) != 7 {
		t.Errorf("CDF has %d points, want 7", len(pts))
	}
}

func TestBoxStats(t *testing.T) {
	s := &Sample{}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	b := s.BoxStats()
	if !almost(b.Median, 50.5, 1e-9) || !almost(b.Mean, 50.5, 1e-9) {
		t.Errorf("median/mean = %v/%v, want 50.5", b.Median, b.Mean)
	}
	if b.P5 >= b.P25 || b.P25 >= b.Median || b.Median >= b.P75 || b.P75 >= b.P95 {
		t.Errorf("box quantiles not ordered: %+v", b)
	}
	if b.N != 100 {
		t.Errorf("N = %d, want 100", b.N)
	}
	if b.String() == "" {
		t.Error("Box.String empty")
	}
}

func TestHistogram(t *testing.T) {
	s := NewSample(0, 1, 2, 3, 4, 5, 6, 7, 8, 10)
	edges, counts := s.Histogram(5)
	if len(edges) != 6 || len(counts) != 5 {
		t.Fatalf("histogram shape: %d edges, %d counts", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != s.N() {
		t.Errorf("histogram total = %d, want %d", total, s.N())
	}
}

func TestHistogramSkipsNaN(t *testing.T) {
	// NaN observations used to hit the undefined float->int conversion and
	// land in an arbitrary bin; they must be excluded from both the range
	// and the counts.
	s := NewSample(1, math.NaN(), 2, 3, math.NaN(), 4)
	edges, counts := s.Histogram(3)
	if len(edges) != 4 || len(counts) != 3 {
		t.Fatalf("histogram shape: %d edges, %d counts", len(edges), len(counts))
	}
	if edges[0] != 1 || edges[3] != 4 {
		t.Errorf("range [%v,%v] distorted by NaN, want [1,4]", edges[0], edges[3])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Errorf("binned %d observations, want 4 (NaNs must not count)", total)
	}
	for i, e := range edges {
		if math.IsNaN(e) {
			t.Errorf("edge %d is NaN", i)
		}
	}
}

func TestHistogramAllNaN(t *testing.T) {
	s := NewSample(math.NaN(), math.NaN())
	edges, counts := s.Histogram(4)
	if edges != nil || counts != nil {
		t.Errorf("all-NaN sample: got edges=%v counts=%v, want nil/nil", edges, counts)
	}
}

func TestHistogramSkipsInf(t *testing.T) {
	// ±Inf is the same undefined-int-conversion class as NaN: it must not
	// blow up the range (Inf edges) or land in a bin.
	s := NewSample(1, math.Inf(1), 2, math.Inf(-1), 3)
	edges, counts := s.Histogram(2)
	if edges[0] != 1 || edges[2] != 3 {
		t.Errorf("range [%v,%v] distorted by Inf, want [1,3]", edges[0], edges[2])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("binned %d observations, want 3 (Inf must not count)", total)
	}
	if e, c := func() ([]float64, []int) { return NewSample(math.Inf(1)).Histogram(3) }(); e != nil || c != nil {
		t.Errorf("all-Inf sample: got edges=%v counts=%v, want nil/nil", e, c)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	s := NewSample(5, 5, 5)
	_, counts := s.Histogram(4)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("degenerate histogram lost observations: %v", counts)
	}
}

// Property: percentile is monotone in p, bounded by min/max, and the median
// of a sample equals the median of its reverse.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		s := NewSample(xs...)
		lo, hi := s.Percentile(p1), s.Percentile(p2)
		if lo > hi {
			return false
		}
		if lo < s.Min() || hi > s.Max() {
			return false
		}
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		return NewSample(rev...).Median() == s.Median()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FractionBelow agrees with a brute-force count.
func TestFractionBelowProperty(t *testing.T) {
	f := func(raw []float64, x float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.IsNaN(x) {
			return true
		}
		n := 0
		for _, v := range xs {
			if v <= x {
				n++
			}
		}
		want := float64(n) / float64(len(xs))
		return almost(NewSample(xs...).FractionBelow(x), want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: CDF values are exactly the sorted distinct inputs.
func TestCDFValuesProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		distinct := map[float64]bool{}
		for _, v := range xs {
			distinct[v] = true
		}
		pts := NewSample(xs...).CDF()
		if len(pts) != len(distinct) {
			return false
		}
		vals := make([]float64, 0, len(distinct))
		for v := range distinct {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		for i, p := range pts {
			if p.Value != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleMarshalJSON(t *testing.T) {
	s := NewSample(3, 1, 2, 4, 5)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if got["n"] != 5 || got["mean"] != 3 || got["min"] != 1 || got["max"] != 5 || got["median"] != 3 {
		t.Errorf("summary = %s", b)
	}
	// Determinism: identical samples encode to identical bytes.
	b2, _ := json.Marshal(NewSample(3, 1, 2, 4, 5))
	if string(b) != string(b2) {
		t.Errorf("encoding not deterministic: %s vs %s", b, b2)
	}
	// Empty samples encode without NaN (json cannot represent NaN).
	if b, err := json.Marshal(&Sample{}); err != nil || string(b) != `{"n":0}` {
		t.Errorf("empty sample -> %s, %v", b, err)
	}
}

// TestValuesOrderSurvivesQuantiles pins the Values() contract: "raw
// observations" means insertion order, and no quantile query may reorder the
// backing array callers might hold.
func TestValuesOrderSurvivesQuantiles(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	s := NewSample(in...)
	held := s.Values()
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	s.Min()
	s.Max()
	s.CDF()
	s.FractionBelow(2.5)
	for i, v := range held {
		if v != in[i] {
			t.Fatalf("Values()[%d] = %v after quantile queries, want %v (insertion order destroyed)", i, v, in[i])
		}
	}
	// Later additions must be visible to subsequent quantile queries.
	s.Add(0)
	if got := s.Min(); got != 0 {
		t.Errorf("Min after Add = %v, want 0", got)
	}
	if got := s.Values()[len(s.Values())-1]; got != 0 {
		t.Errorf("last value = %v, want 0", got)
	}
}
