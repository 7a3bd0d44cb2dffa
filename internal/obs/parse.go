package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one name="value" pair of a parsed series.
type Label struct {
	Name, Value string
}

// Sample is one series line of a text exposition: metric name, labels in
// the order they appeared, and value. Histogram buckets, sums and counts
// appear as their own samples (name_bucket with an le label, name_sum,
// name_count), exactly as WriteText renders them.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label, or "" when absent.
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// matches reports whether every fragment (a rendered `name="value"` pair,
// e.g. `reason="shed"`) is one of the sample's labels.
func (s Sample) matches(fragments []string) bool {
	for _, f := range fragments {
		found := false
		for _, l := range s.Labels {
			if f == l.Name+`="`+escapeLabel(l.Value)+`"` {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Samples is a parsed text exposition — the reading side of WriteText,
// for clients that fetch a registry dump over the wire (`gdmp status`)
// and tests that inspect one. Lookups treat a missing series as absent
// rather than as an error, so a reader built against a newer registry
// renders a dump from an older one and ignores names it does not know.
type Samples []Sample

// ParseText parses the Prometheus text exposition format: comment lines
// (# HELP, # TYPE, anything else after #) and blank lines are skipped,
// and every other line must be `name[{labels}] value [timestamp]`. A
// malformed line fails the whole parse with its line number.
func ParseText(text string) (Samples, error) {
	var out Samples
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", n+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func isNameByte(c byte, first bool) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(!first && c >= '0' && c <= '9')
}

// parseName consumes a metric or label name from the front of s.
func parseName(s string) (name, rest string, err error) {
	i := 0
	for i < len(s) && isNameByte(s[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", "", fmt.Errorf("expected a name at %q", s)
	}
	return s[:i], s[i:], nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	name, rest, err := parseName(line)
	if err != nil {
		return s, err
	}
	s.Name = name
	if strings.HasPrefix(rest, "{") {
		if s.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return s, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 || !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		return s, fmt.Errorf("want `name[{labels}] value [timestamp]`, got %q", line)
	}
	if s.Value, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return s, fmt.Errorf("value: %w", err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("timestamp: %w", err)
		}
	}
	return s, nil
}

// parseLabels consumes `name="value",...}` (the opening brace already
// eaten), undoing escapeLabel's escapes.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		name, rest, err := parseName(s)
		if err != nil {
			return nil, "", err
		}
		if !strings.HasPrefix(rest, `="`) {
			return nil, "", fmt.Errorf("label %s: want =\"", name)
		}
		rest = rest[2:]
		var v strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] != '\\' {
				v.WriteByte(rest[i])
				continue
			}
			if i++; i == len(rest) {
				break
			}
			switch rest[i] {
			case '\\', '"':
				v.WriteByte(rest[i])
			case 'n':
				v.WriteByte('\n')
			default:
				return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, rest[i])
			}
		}
		if i >= len(rest) {
			return nil, "", fmt.Errorf("label %s: unterminated value", name)
		}
		labels = append(labels, Label{Name: name, Value: v.String()})
		s = strings.TrimLeft(rest[i+1:], " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if !strings.HasPrefix(s, "}") {
			return nil, "", fmt.Errorf("label %s: want , or }", name)
		}
	}
}

// Value returns the first series of the named metric whose labels include
// every fragment (`name="value"`), and whether one exists.
func (ss Samples) Value(name string, fragments ...string) (float64, bool) {
	for _, s := range ss {
		if s.Name == name && s.matches(fragments) {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds up every series of the named metric whose labels include every
// fragment: Sum("x_total") is the family total across all label values,
// Sum("x_total", `reason="shed"`) one slice of it. A missing family sums
// to 0.
func (ss Samples) Sum(name string, fragments ...string) float64 {
	var sum float64
	for _, s := range ss {
		if s.Name == name && s.matches(fragments) {
			sum += s.Value
		}
	}
	return sum
}

// Quantile estimates the q-quantile of the named histogram from its
// parsed cumulative buckets (name_bucket), merging every child of a
// labeled family. It answers exactly what Histogram.Quantile answers on
// the live collector; a missing histogram reports 0.
func (ss Samples) Quantile(name string, q float64) float64 {
	cum := make(map[float64]float64)
	for _, s := range ss {
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Label("le"), 64)
		if err != nil || math.IsNaN(le) {
			continue
		}
		cum[le] += s.Value
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	counts := make([]int64, len(bounds))
	prev := 0.0
	for i, le := range bounds {
		if c := cum[le] - prev; c > 0 {
			counts[i] = int64(c)
		}
		prev = cum[le]
	}
	return bucketQuantile(bounds, counts, q)
}
