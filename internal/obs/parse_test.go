package obs

import (
	"math"
	"strings"
	"testing"
)

func TestParseTextReadsEveryCollectorKind(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A counter.").Add(7)
	r.Gauge("b_depth", "").Set(-3)
	cv := r.CounterVec("c_total", "By reason.", "class", "reason")
	cv.WithLabelValues("bulk", "shed").Add(2)
	cv.WithLabelValues("bulk", "expired").Add(5)
	cv.WithLabelValues("control", "shed").Add(1)
	r.GaugeVec("d_state", "", "peer").WithLabelValues(`odd "peer"\name` + "\n").Set(2)
	h := r.Histogram("e_seconds", "", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(3)

	ss, err := ParseText(r.Text())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ss.Value("a_total"); !ok || v != 7 {
		t.Errorf("a_total = %v, %v", v, ok)
	}
	if v, _ := ss.Value("b_depth"); v != -3 {
		t.Errorf("b_depth = %v", v)
	}
	if v, ok := ss.Value("missing_total"); ok || v != 0 {
		t.Errorf("missing series = %v, %v; want absent", v, ok)
	}
	for _, c := range []struct {
		frags []string
		want  float64
	}{
		{nil, 8},
		{[]string{`reason="shed"`}, 3},
		{[]string{`class="bulk"`}, 7},
		{[]string{`class="bulk"`, `reason="shed"`}, 2},
		{[]string{`reason="canceled"`}, 0},
	} {
		if got := ss.Sum("c_total", c.frags...); got != c.want {
			t.Errorf("Sum(c_total, %v) = %v, want %v", c.frags, got, c.want)
		}
	}
	var peer Sample
	for _, s := range ss {
		if s.Name == "d_state" {
			peer = s
		}
	}
	if got := peer.Label("peer"); got != `odd "peer"\name`+"\n" || peer.Value != 2 {
		t.Errorf("escaped label round trip = %q (%v)", got, peer.Value)
	}
	if v, _ := ss.Value("e_seconds_bucket", `le="+Inf"`); v != 2 {
		t.Errorf("+Inf bucket = %v", v)
	}
	if v, _ := ss.Value("e_seconds_sum"); v != 3.25 {
		t.Errorf("histogram sum = %v", v)
	}
}

// TestSamplesQuantileMatchesHistogram pins the one-estimator contract: a
// quantile computed from parsed cumulative buckets equals the live
// collector's, so `gdmp status` reports the same p99 the site computes.
func TestSamplesQuantileMatchesHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("locate_seconds", "", nil)
	for i := 0; i < 500; i++ {
		h.Observe(float64(i%37) * 0.0007)
	}
	h.Observe(250) // one observation past every bound
	ss, err := ParseText(r.Text())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := ss.Quantile("locate_seconds", q), h.Quantile(q); got != want {
			t.Errorf("q=%v: parsed %v, histogram %v", q, got, want)
		}
	}
	if got := ss.Quantile("absent_seconds", 0.99); got != 0 {
		t.Errorf("absent histogram p99 = %v, want 0", got)
	}
}

func TestParseTextAcceptsForeignFormatting(t *testing.T) {
	ss, err := ParseText("# free-form comment\n\n  x_total{a=\"1\",} 4 1700000000000\ny NaN\nz{ } +Inf\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ss.Value("x_total", `a="1"`); v != 4 {
		t.Errorf("x_total = %v", v)
	}
	if v, _ := ss.Value("y"); !math.IsNaN(v) {
		t.Errorf("y = %v, want NaN", v)
	}
	if v, _ := ss.Value("z"); !math.IsInf(v, 1) {
		t.Errorf("z = %v, want +Inf", v)
	}
}

func TestParseTextRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"9lives 1",
		"x",
		"x{a=\"1\"}",
		"x 1 2 3",
		"x one",
		"x 1 soon",
		"x{a=1} 1",
		"x{a=\"1\" 1",
		"x{a=\"unterminated} 1",
		"x{a=\"bad\\escape\"} 1",
		"x{=\"v\"} 1",
		"x{a=\"1\"}2",
	} {
		if _, err := ParseText("ok 1\n" + bad + "\n"); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ParseText(%q) error = %v, want a line-2 error", bad, err)
		}
	}
}

// FuzzParseText feeds arbitrary bytes to the parser, which reads what a
// peer sends: it must never panic. The same bytes then name a series in
// every collector kind, and the dump must parse back to every value —
// whatever a label value holds, the exposition has to survive it. The
// seed corpus under testdata/fuzz is a real site's registry dump.
func FuzzParseText(f *testing.F) {
	f.Add("x_total 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		_, _ = ParseText(text) // arbitrary bytes may fail to parse; they must not panic
		if strings.Contains(text, labelSep) {
			// Vector children are keyed by their values joined with
			// labelSep, so a value containing it cannot be told apart
			// from two values; no caller names a series with it.
			return
		}
		n := int64(len(text))
		r := NewRegistry()
		r.CounterVec("f_total", "", "l").WithLabelValues(text).Add(n)
		r.GaugeVec("f_gauge", "", "l").WithLabelValues(text).Set(-n)
		h := r.HistogramVec("f_seconds", "", []float64{1, 64, 4096}, "l").WithLabelValues(text)
		h.Observe(float64(n))
		ss, err := ParseText(r.Text())
		if err != nil {
			t.Fatalf("own exposition does not parse: %v", err)
		}
		byLabel := func(name string) (float64, bool) {
			for _, s := range ss {
				if s.Name == name && s.Label("l") == text {
					return s.Value, true
				}
			}
			return 0, false
		}
		for name, want := range map[string]float64{
			"f_total":         float64(n),
			"f_gauge":         float64(-n),
			"f_seconds_sum":   float64(n),
			"f_seconds_count": 1,
		} {
			if got, ok := byLabel(name); !ok || got != want {
				t.Fatalf("%s = %v (present %v), want %v", name, got, ok, want)
			}
		}
		if got, want := ss.Quantile("f_seconds", 0.5), h.Quantile(0.5); got != want {
			t.Fatalf("parsed p50 %v, histogram %v", got, want)
		}
	})
}
