package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Prometheus / OpenMetrics text exposition of a Snapshot.
//
// Metric-name mapping: the registry's slash-separated names become one
// flat family each, prefixed "beegfsim_" with every non-[a-zA-Z0-9_]
// byte replaced by '_' (`simnet/solves/start` →
// `beegfsim_simnet_solves_start`). Counters render as counter families
// with the OpenMetrics `_total` sample suffix, high-water maxima as
// gauges, and log-2 histograms as classic cumulative histograms whose
// `le` bounds are the buckets' inclusive upper bounds (0, 1, 3, 7, …)
// plus `+Inf`. Campaign progress renders as two gauge families labelled
// by run. Families are emitted in snapshot (i.e. name-sorted) order and
// the document ends with the OpenMetrics `# EOF` terminator, so equal
// snapshots expose byte-identical text (pinned by the golden-file test).

// PromContentType is the Content-Type the /metrics endpoint serves.
const PromContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// promName flattens a registry metric name into a Prometheus family name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("beegfsim_"))
	b.WriteString("beegfsim_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func promHeader(b *bufio.Writer, fam, typ, origName string) {
	b.WriteString("# HELP ")
	b.WriteString(fam)
	b.WriteString(" simulator metric ")
	b.WriteString(origName)
	b.WriteString("\n# TYPE ")
	b.WriteString(fam)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
}

// EncodeProm writes snap in the OpenMetrics text exposition format.
func EncodeProm(w io.Writer, snap *Snapshot) error {
	b := bufio.NewWriter(w)
	for _, c := range snap.Counters {
		fam := promName(c.Name)
		promHeader(b, fam, "counter", c.Name)
		b.WriteString(fam)
		b.WriteString("_total ")
		b.WriteString(strconv.FormatUint(c.Value, 10))
		b.WriteByte('\n')
	}
	for _, m := range snap.Maxima {
		fam := promName(m.Name)
		promHeader(b, fam, "gauge", m.Name)
		b.WriteString(fam)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(m.Value, 10))
		b.WriteByte('\n')
	}
	for i := range snap.Hists {
		h := &snap.Hists[i]
		fam := promName(h.Name)
		promHeader(b, fam, "histogram", h.Name)
		// Cumulative counts up to the top populated bucket, then +Inf.
		top := -1
		for bi, cnt := range h.Buckets {
			if cnt > 0 {
				top = bi
			}
		}
		var cum uint64
		for bi := 0; bi <= top; bi++ {
			cum += h.Buckets[bi]
			b.WriteString(fam)
			b.WriteString(`_bucket{le="`)
			b.WriteString(strconv.FormatUint(BucketBound(bi), 10))
			b.WriteString(`"} `)
			b.WriteString(strconv.FormatUint(cum, 10))
			b.WriteByte('\n')
		}
		b.WriteString(fam)
		b.WriteString(`_bucket{le="+Inf"} `)
		b.WriteString(strconv.FormatUint(h.Count, 10))
		b.WriteByte('\n')
		b.WriteString(fam)
		b.WriteString("_sum ")
		b.WriteString(strconv.FormatUint(h.Sum, 10))
		b.WriteByte('\n')
		b.WriteString(fam)
		b.WriteString("_count ")
		b.WriteString(strconv.FormatUint(h.Count, 10))
		b.WriteByte('\n')
	}
	if len(snap.Runs) > 0 {
		b.WriteString("# HELP beegfsim_campaign_reps_completed repetitions completed per campaign\n")
		b.WriteString("# TYPE beegfsim_campaign_reps_completed gauge\n")
		for _, r := range snap.Runs {
			b.WriteString(`beegfsim_campaign_reps_completed{label="`)
			b.WriteString(promLabel(r.Label))
			b.WriteString(`"} `)
			b.WriteString(strconv.FormatUint(r.Done, 10))
			b.WriteByte('\n')
		}
		b.WriteString("# HELP beegfsim_campaign_reps_total repetitions scheduled per campaign\n")
		b.WriteString("# TYPE beegfsim_campaign_reps_total gauge\n")
		for _, r := range snap.Runs {
			b.WriteString(`beegfsim_campaign_reps_total{label="`)
			b.WriteString(promLabel(r.Label))
			b.WriteString(`"} `)
			b.WriteString(strconv.FormatUint(r.Total, 10))
			b.WriteByte('\n')
		}
	}
	b.WriteString("# EOF\n")
	return b.Flush()
}

// NewPromSink returns a sink writing the OpenMetrics exposition text to
// path at Close — the file-backed twin of the /metrics endpoint, for
// scrapers pointed at node-local textfile collectors.
func NewPromSink(path string) Sink {
	return &fileSink{path: path, enc: EncodeProm}
}
