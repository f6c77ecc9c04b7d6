package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// WriteExplain renders a query's span tree as a human-readable plan and
// profile: one line per span with its duration and attributes, indented as
// a tree. The output shape (names, attrs) is the query plan; the durations
// are the profile.
func WriteExplain(w io.Writer, root *Span) error {
	if root == nil {
		_, err := io.WriteString(w, "no trace recorded (tracing disabled?)\n")
		return err
	}
	// First pass: compute the widest name column so durations align.
	width := 0
	var measure func(s *Span, indent int)
	measure = func(s *Span, indent int) {
		if n := indent + len(s.Name); n > width {
			width = n
		}
		for _, c := range s.Children() {
			measure(c, indent+3)
		}
	}
	measure(root, 0)
	if width > 60 {
		width = 60
	}

	var b strings.Builder
	var write func(s *Span, prefix, childPrefix string)
	write = func(s *Span, prefix, childPrefix string) {
		line := prefix + s.Name
		pad := width - utf8.RuneCountInString(line)
		if pad < 0 {
			pad = 0
		}
		fmt.Fprintf(&b, "%s%s  %9s", line, strings.Repeat(" ", pad), FormatDuration(s.Dur))
		for _, a := range s.Attrs() {
			fmt.Fprintf(&b, "  %s=%v", a.Key, a.Value)
		}
		b.WriteByte('\n')
		children := s.Children()
		for i, c := range children {
			connector, next := "├─ ", "│  "
			if i == len(children)-1 {
				connector, next = "└─ ", "   "
			}
			write(c, childPrefix+connector, childPrefix+next)
		}
	}
	write(root, "", "")
	_, err := io.WriteString(w, b.String())
	return err
}

// EndpointStat is one row of the per-endpoint traffic table, pivoted from
// the registry's endpoint-labeled metrics.
type EndpointStat struct {
	Endpoint string
	Requests int64
	Errors   int64
	Rows     int64
	Bytes    int64
	Seconds  float64 // total request time at this endpoint
}

// EndpointStats pivots a registry snapshot into per-endpoint traffic rows,
// sorted by endpoint name. Rows, bytes, and request time come from the
// histograms' sums; requests and errors from the counters.
func EndpointStats(r *Registry) []EndpointStat {
	byEP := map[string]*EndpointStat{}
	get := func(labels map[string]string) *EndpointStat {
		name := labels["endpoint"]
		if name == "" {
			return nil
		}
		st, ok := byEP[name]
		if !ok {
			st = &EndpointStat{Endpoint: name}
			byEP[name] = st
		}
		return st
	}
	for _, fam := range r.Snapshot() {
		for _, s := range fam.Series {
			st := get(s.Labels)
			if st == nil {
				continue
			}
			switch fam.Name {
			case MetricRequests:
				st.Requests += int64(s.Value)
			case MetricErrors:
				st.Errors += int64(s.Value)
			case MetricResultRows:
				st.Rows += int64(s.Histogram.Sum)
			case MetricResultBytes:
				st.Bytes += int64(s.Histogram.Sum)
			case MetricRequestSeconds:
				st.Seconds += s.Histogram.Sum
			}
		}
	}
	out := make([]EndpointStat, 0, len(byEP))
	for _, st := range byEP {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// WriteEndpointStats renders the per-endpoint traffic table of a registry:
// requests, errors, rows, payload bytes, and mean request latency
// per endpoint, plus a totals row.
func WriteEndpointStats(w io.Writer, r *Registry) error {
	stats := EndpointStats(r)
	if len(stats) == 0 {
		_, err := io.WriteString(w, "no endpoint traffic recorded\n")
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %7s %10s %10s %10s\n",
		"endpoint", "requests", "errors", "rows", "bytes", "avg-rtt")
	var total EndpointStat
	for _, st := range stats {
		avg := time.Duration(0)
		if st.Requests > 0 {
			avg = time.Duration(st.Seconds / float64(st.Requests) * float64(time.Second))
		}
		fmt.Fprintf(&b, "%-16s %9d %7d %10d %10d %10s\n",
			st.Endpoint, st.Requests, st.Errors, st.Rows, st.Bytes, FormatDuration(avg))
		total.Requests += st.Requests
		total.Errors += st.Errors
		total.Rows += st.Rows
		total.Bytes += st.Bytes
		total.Seconds += st.Seconds
	}
	fmt.Fprintf(&b, "%-16s %9d %7d %10d %10d\n",
		"TOTAL", total.Requests, total.Errors, total.Rows, total.Bytes)
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatDuration prints a duration in adaptive units (µs / ms / s).
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
