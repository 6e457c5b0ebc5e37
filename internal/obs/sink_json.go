package obs

import (
	"bufio"
	"io"
	"os"
	"strconv"
)

// EncodeJSON writes a snapshot as the registry's JSON export schema:
//
//	{
//	  "counters":   {"name": value, ...},
//	  "histograms": {"name": {"count": N, "sum": N, "buckets": {"<hi>": n, ...}}, ...},
//	  "maxima":     {"name": value, ...}
//	}
//
// Keys are emitted explicitly in the Snapshot's sorted order (histogram
// buckets in ascending bound order), so equal snapshots encode
// byte-identically — the property the golden-file test pins. The schema
// is unchanged from the PR 5 export, so existing consumers (the CI jq
// checks) keep working.
func EncodeJSON(w io.Writer, snap *Snapshot) error {
	b := bufio.NewWriter(w)
	b.WriteString("{\n  \"counters\": {")
	writeValueMap(b, snap.Counters)
	b.WriteString("},\n  \"histograms\": {")
	for i := range snap.Hists {
		h := &snap.Hists[i]
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		b.WriteString(strconv.Quote(h.Name))
		b.WriteString(": {\"count\": ")
		b.WriteString(strconv.FormatUint(h.Count, 10))
		b.WriteString(", \"sum\": ")
		b.WriteString(strconv.FormatUint(h.Sum, 10))
		b.WriteString(", \"buckets\": {")
		first := true
		for bi, cnt := range h.Buckets {
			if cnt == 0 {
				continue
			}
			if !first {
				b.WriteString(", ")
			}
			first = false
			b.WriteByte('"')
			b.WriteString(strconv.FormatUint(BucketBound(bi), 10))
			b.WriteString("\": ")
			b.WriteString(strconv.FormatUint(cnt, 10))
		}
		b.WriteString("}}")
	}
	if len(snap.Hists) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("},\n  \"maxima\": {")
	writeValueMap(b, snap.Maxima)
	b.WriteString("}\n}\n")
	return b.Flush()
}

// writeValueMap emits the entries of a sorted name→value object.
func writeValueMap(b *bufio.Writer, vals []MetricValue) {
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		b.WriteString(strconv.Quote(v.Name))
		b.WriteString(": ")
		b.WriteString(strconv.FormatUint(v.Value, 10))
	}
	if len(vals) > 0 {
		b.WriteString("\n  ")
	}
}

// fileSink is the file-backed sink every constructor returns: Close
// creates the file and encodes the final snapshot (or, for the trace
// sinks, the tracer) into it as one complete, deterministic document.
type fileSink struct {
	path string
	enc  func(io.Writer, *Snapshot) error
}

func (s *fileSink) Close(snap *Snapshot) error {
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	if err := s.enc(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NewJSONSink returns a sink writing the registry JSON export schema to
// path at Close (the pipeline form of the -metrics flag).
func NewJSONSink(path string) Sink {
	return &fileSink{path: path, enc: EncodeJSON}
}
