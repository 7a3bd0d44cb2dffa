package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"gdmp/internal/obs"
)

// minBeyond is how many samples must lie above the reported tail value.
const minBeyond = 10

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest order statistic that still has minBeyond
// samples above it, and the percentile it sits at. With too few samples
// it reports the maximum and ok=false.
func tail(xs []float64) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	idx := len(s) - 1 - minBeyond
	if idx < 0 {
		return s[len(s)-1], 100, false
	}
	return s[idx], 100 * float64(idx+1) / float64(len(s)), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// snapshot is a parsed metrics dump: series text ("name{labels}") to value,
// summed over every registry it was taken from.
type snapshot map[string]float64

// snap reads the registries' Prometheus text dumps. Sites keep private
// registries, so reading them is the only view of their counters that
// needs no program change.
func snap(regs ...*obs.Registry) snapshot {
	s := snapshot{}
	for _, r := range regs {
		for _, line := range strings.Split(r.Text(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			s[line[:i]] += v
		}
	}
	return s
}

// minus returns the per-series difference s - o.
func (s snapshot) minus(o snapshot) snapshot {
	d := snapshot{}
	for k, v := range s {
		d[k] = v - o[k]
	}
	return d
}

// sum adds every series of metric name whose label text contains all of
// the given fragments (e.g. `outcome="ok"`).
func (s snapshot) sum(name string, fragments ...string) float64 {
	t := 0.0
	for k, v := range s {
		base, labels := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, labels = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		match := true
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				match = false
				break
			}
		}
		if match {
			t += v
		}
	}
	return t
}

// histQuantile estimates the q-quantile of histogram name from its
// cumulative buckets (summed over the snapshot's registries), with the
// same in-bucket interpolation as obs.Histogram.Quantile.
func (s snapshot) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		raw := k[i+4:]
		raw = raw[:strings.IndexByte(raw, '"')]
		le, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lower, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > prev {
			if math.IsInf(b.le, 1) {
				return lower
			}
			return lower + (b.le-lower)*(rank-prev)/(b.cum-prev)
		}
		lower, prev = b.le, b.cum
	}
	return lower
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
