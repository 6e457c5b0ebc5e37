package obs

import "io"

// Trace-backed sinks: unlike the snapshot sinks, these render the
// pipeline's event tracer rather than the merged metric model. Trace
// events accumulate across the whole run, and the file is produced once,
// at Close. Constructing either sink enables the pipeline's tracer, which
// is what turns event recording on; without one of these sinks the
// pipeline carries no tracer and the simulation skips event capture
// entirely (the zero-cost contract).

// NewTraceSink enables p's tracer and returns a sink that writes the
// Chrome trace-event JSON (chrome://tracing, Perfetto) to path when the
// pipeline closes.
func NewTraceSink(p *Pipeline, path string) Sink {
	t := p.EnableTrace()
	return &fileSink{path: path, enc: func(w io.Writer, _ *Snapshot) error { return t.WriteJSON(w) }}
}

// NewUtilCSVSink enables p's tracer and returns a sink that writes the
// utilization timeline CSV for counter tracks matching prefix ("ost",
// "oss", ...) to path when the pipeline closes (the -utilcsv flag).
func NewUtilCSVSink(p *Pipeline, path, prefix string) Sink {
	t := p.EnableTrace()
	return &fileSink{path: path, enc: func(w io.Writer, _ *Snapshot) error { return t.WriteUtilCSV(w, prefix) }}
}
