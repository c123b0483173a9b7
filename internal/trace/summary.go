package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The text summary: a compact, flamegraph-style aggregation of a span
// stream — per (category, name): call count, total and mean virtual
// time, and a proportional bar. Like the Chrome exporter it is a pure
// function of the span contents.

// summaryRow is one aggregated (cat, name) line.
type summaryRow struct {
	cat, name string
	count     int64
	total     int64
	worst     int64
}

// Summarize renders spans as a compact text profile: spans grouped by
// (Cat, Name), categories in device→lfs→serve order, rows by total
// virtual time descending, each with a bar proportional to its share
// of the largest row.
func Summarize(spans []Span) string {
	if len(spans) == 0 {
		return "trace: no spans\n"
	}
	agg := make(map[[2]string]*summaryRow)
	var wallLo, wallHi int64
	wallLo = spans[0].Start
	for i := range spans {
		s := &spans[i]
		if s.Start < wallLo {
			wallLo = s.Start
		}
		if end := s.Start + s.Dur; end > wallHi {
			wallHi = end
		}
		key := [2]string{s.Cat, s.Name}
		r := agg[key]
		if r == nil {
			r = &summaryRow{cat: s.Cat, name: s.Name}
			agg[key] = r
		}
		r.count++
		r.total += s.Dur
		if s.Dur > r.worst {
			r.worst = s.Dur
		}
	}
	rows := make([]*summaryRow, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, r)
	}
	catRank := func(c string) int {
		switch c {
		case "device":
			return 0
		case "lfs":
			return 1
		case "serve":
			return 2
		}
		return 3
	}
	sort.Slice(rows, func(i, j int) bool {
		if ci, cj := catRank(rows[i].cat), catRank(rows[j].cat); ci != cj {
			return ci < cj
		}
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].name < rows[j].name
	})
	var maxTotal int64
	for _, r := range rows {
		if r.total > maxTotal {
			maxTotal = r.total
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace summary: %d spans over %v of virtual time\n",
		len(spans), time.Duration(wallHi-wallLo))
	b.WriteString("cat     span            count      total       mean      worst  share\n")
	const barWidth = 24
	for _, r := range rows {
		bar := 0
		if maxTotal > 0 {
			bar = int(int64(barWidth) * r.total / maxTotal)
		}
		mean := int64(0)
		if r.count > 0 {
			mean = r.total / r.count
		}
		fmt.Fprintf(&b, "%-7s %-15s %6d %10v %10v %10v  %s\n",
			r.cat, r.name, r.count,
			time.Duration(r.total), time.Duration(mean), time.Duration(r.worst),
			strings.Repeat("█", bar))
	}
	return b.String()
}
