package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// InfluxDB line-protocol rendering of a Snapshot.
//
// Schema: one measurement per metric class, the registry name carried as
// the `metric` tag (escaped per the protocol), values as uint64 fields:
//
//	beegfsim,metric=simnet/waterfill_passes,type=counter value=123u
//	beegfsim,metric=simkernel/heap_high_water,type=max value=40u
//	beegfsim,metric=beegfs/op_mib,type=hist count=64u,sum=8192u
//	beegfsim_bucket,metric=beegfs/op_mib,le=127 count=64u
//	beegfsim_campaign,label=fig4/N=8 completed=3u,total=100u
//
// Bucket lines carry cumulative counts (mirroring the Prometheus
// rendering) keyed by the log-2 inclusive upper bound. Lines are emitted
// in snapshot order with no timestamp by default — equal snapshots render
// byte-identical files (the golden-file test pins this); EncodeInflux can
// stamp a collection timestamp for real ingestion.

// EncodeInflux writes snap as InfluxDB line protocol. ts, when nonzero,
// is appended to every line as the nanosecond timestamp.
func EncodeInflux(w io.Writer, snap *Snapshot, ts int64) error {
	b := bufio.NewWriter(w)
	stamp := ""
	if ts != 0 {
		stamp = " " + strconv.FormatInt(ts, 10)
	}
	for _, c := range snap.Counters {
		b.WriteString("beegfsim,metric=")
		b.WriteString(influxTag(c.Name))
		b.WriteString(",type=counter value=")
		b.WriteString(strconv.FormatUint(c.Value, 10))
		b.WriteString("u")
		b.WriteString(stamp)
		b.WriteByte('\n')
	}
	for _, m := range snap.Maxima {
		b.WriteString("beegfsim,metric=")
		b.WriteString(influxTag(m.Name))
		b.WriteString(",type=max value=")
		b.WriteString(strconv.FormatUint(m.Value, 10))
		b.WriteString("u")
		b.WriteString(stamp)
		b.WriteByte('\n')
	}
	for i := range snap.Hists {
		h := &snap.Hists[i]
		tag := influxTag(h.Name)
		b.WriteString("beegfsim,metric=")
		b.WriteString(tag)
		b.WriteString(",type=hist count=")
		b.WriteString(strconv.FormatUint(h.Count, 10))
		b.WriteString("u,sum=")
		b.WriteString(strconv.FormatUint(h.Sum, 10))
		b.WriteString("u")
		b.WriteString(stamp)
		b.WriteByte('\n')
		var cum uint64
		for bi, cnt := range h.Buckets {
			if cnt == 0 {
				continue
			}
			cum += cnt
			b.WriteString("beegfsim_bucket,metric=")
			b.WriteString(tag)
			b.WriteString(",le=")
			b.WriteString(strconv.FormatUint(BucketBound(bi), 10))
			b.WriteString(" count=")
			b.WriteString(strconv.FormatUint(cum, 10))
			b.WriteString("u")
			b.WriteString(stamp)
			b.WriteByte('\n')
		}
	}
	for _, r := range snap.Runs {
		b.WriteString("beegfsim_campaign,label=")
		b.WriteString(influxTag(r.Label))
		b.WriteString(" completed=")
		b.WriteString(strconv.FormatUint(r.Done, 10))
		b.WriteString("u,total=")
		b.WriteString(strconv.FormatUint(r.Total, 10))
		b.WriteString("u")
		b.WriteString(stamp)
		b.WriteByte('\n')
	}
	return b.Flush()
}

// influxTag escapes a tag value: commas, spaces and equals signs are the
// protocol's tag metacharacters.
func influxTag(v string) string {
	v = strings.ReplaceAll(v, `,`, `\,`)
	v = strings.ReplaceAll(v, ` `, `\ `)
	return strings.ReplaceAll(v, `=`, `\=`)
}

// NewInfluxSink returns a sink writing the snapshot as InfluxDB line
// protocol to path at Close, without timestamps, so the file is
// bit-reproducible run to run.
func NewInfluxSink(path string) Sink {
	return &fileSink{path: path, enc: func(w io.Writer, snap *Snapshot) error { return EncodeInflux(w, snap, 0) }}
}
