package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// campaignFlags are the flags the two campaign commands, figures and ior,
// share: the seed (each command keeps its own default), the worker count,
// one flag per metrics sink and the live endpoint. None of them changes a
// simulated number.
type campaignFlags struct {
	seed                                  uint64
	workers                               int
	metrics, prom, influx, trace, utilCSV string
	serve                                 string
	linger                                time.Duration
}

func (c *campaignFlags) register(fs *flag.FlagSet, seed uint64) {
	fs.Uint64Var(&c.seed, "seed", seed, "campaign seed")
	fs.IntVar(&c.workers, "workers", 0, "concurrent repetitions (0 = one per CPU, 1 = serial; same results either way)")
	fs.StringVar(&c.metrics, "metrics", "", "write merged observability metrics to this JSON file (plus a summary table on stderr)")
	fs.StringVar(&c.prom, "prom", "", "write merged observability metrics to this file as OpenMetrics text")
	fs.StringVar(&c.influx, "influx", "", "write merged observability metrics to this file as InfluxDB line protocol")
	fs.StringVar(&c.trace, "trace", "", "write one repetition's Chrome trace-event JSON to this file (perfetto-loadable)")
	fs.StringVar(&c.utilCSV, "utilcsv", "", "write the traced repetition's per-OST utilization timeline to this CSV file")
	fs.StringVar(&c.serve, "serve", "", "serve live /metrics (OpenMetrics) and /runs (progress) on this address while the run executes (e.g. 127.0.0.1:9464, or :0 for an ephemeral port)")
	fs.DurationVar(&c.linger, "serve-linger", 0, "keep the -serve endpoint up this long after the run finishes")
}

// observe runs fn with the metrics pipeline the flags describe (nil when
// none is set), served live under -serve, then renders every sink once
// and prints the stderr summaries the sink flags imply. It rejects a
// negative -workers before fn runs.
func (c *campaignFlags) observe(fn func(*obs.Pipeline) error) error {
	if c.workers < 0 {
		return fmt.Errorf("-workers must be 0 (one per CPU) or more, got %d", c.workers)
	}
	var pl *obs.Pipeline
	if c.metrics != "" || c.prom != "" || c.influx != "" || c.trace != "" || c.utilCSV != "" || c.serve != "" {
		pl = obs.NewPipeline()
		if c.metrics != "" {
			pl.AddSink(obs.NewJSONSink(c.metrics))
		}
		if c.prom != "" {
			pl.AddSink(obs.NewPromSink(c.prom))
		}
		if c.influx != "" {
			pl.AddSink(obs.NewInfluxSink(c.influx))
		}
		if c.trace != "" {
			pl.AddSink(obs.NewTraceSink(pl, c.trace))
		}
		if c.utilCSV != "" {
			pl.AddSink(obs.NewUtilCSVSink(pl, c.utilCSV, "ost"))
		}
	}
	if c.serve != "" {
		srv, err := obs.Serve(pl, c.serve)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "beegfsim: serving /metrics and /runs on http://%s\n", srv.Addr())
		defer func() {
			// Give external scrapers a window to collect the final state
			// before the process exits.
			time.Sleep(c.linger)
			srv.Close()
		}()
	}
	if err := fn(pl); err != nil || pl == nil {
		return err
	}
	tracer := pl.Tracer()
	if err := pl.Close(); err != nil {
		return fmt.Errorf("closing metric sinks: %w", err)
	}
	if c.metrics != "" {
		fmt.Fprint(os.Stderr, pl.Registry().Summary())
	}
	if c.trace != "" {
		fmt.Fprintf(os.Stderr, "trace: %d events in %s (load at https://ui.perfetto.dev)\n", tracer.Events(), c.trace)
	}
	return nil
}
