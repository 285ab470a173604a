// Command ibpserved runs the streaming prediction service: clients open
// sessions over TCP, stream branch-trace frames, and receive per-frame
// prediction outcomes plus a final summary. SIGTERM or SIGINT drains the
// server gracefully: accepted work is processed, acknowledged, and
// summarized before the process exits.
//
// Examples:
//
//	ibpserved -addr 127.0.0.1:9670
//	ibpserved -addr :9670 -shards 8 -window 16 -metrics 127.0.0.1:9091
//	ibpserved -pred btb-2bc -table assoc4 -entries 1024 -summaryjson run.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/tuner"
)

func main() { cli.Main("ibpserved", run) }

// run is ibpserved with its arguments, streams and signal context made
// explicit, so tests drive it in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var (
		d           cli.Daemon
		cfg         serve.Config
		tunerOn     bool
		tunerPolicy string
	)
	fs := flag.NewFlagSet("ibpserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	d.Register(fs, "127.0.0.1:9670")
	fs.IntVar(&cfg.Shards, "shards", 0, "max sessions predicting at once (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.Window, "window", 0, "max unacknowledged frames per session (0 = default)")
	fs.IntVar(&cfg.MaxFrameRecords, "maxrecords", 0, "max records per frame (0 = default)")
	fs.IntVar(&cfg.MaxFramePayload, "maxpayload", 0, "max frame payload bytes (0 = default)")
	fs.DurationVar(&cfg.ReadTimeout, "readtimeout", 0, "per-frame read timeout (0 = default)")
	fs.DurationVar(&cfg.WriteTimeout, "writetimeout", 0, "response flush timeout (0 = default)")
	fs.StringVar(&cfg.Tag, "tag", "", "instance label for logs and the run summary (useful under a cluster router)")
	fs.BoolVar(&tunerOn, "tuner", false, "enable the per-session predictor auto-tuner")
	fs.StringVar(&tunerPolicy, "tunerpolicy", "", "default tuner policy, semicolon-separated k=v (e.g. \"interval=512;miss=0.10;target=ittage:8,512,2\"; empty = built-in defaults)")
	cfg.Predictor.Register(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := cfg.Predictor.CheckBuild(); err != nil {
		return err
	}
	if err := d.Start("ibpserved", cfg.Tag, stdout, stderr); err != nil {
		return err
	}
	if tunerOn {
		// An empty spec parses to the built-in defaults.
		policy, err := tuner.ParsePolicy(tunerPolicy)
		if err != nil {
			return fmt.Errorf("-tunerpolicy: %w", err)
		}
		cfg.Tuner = tuner.New(tuner.Options{Policy: policy, Telemetry: d.Telemetry})
		d.Log.Info("tuner on", "policy", policy.String())
	} else if tunerPolicy != "" {
		return errors.New("-tunerpolicy requires -tuner")
	}
	cfg.Flight, cfg.Log = d.Flight, d.Log
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	return d.Run(ctx, srv, cli.RunOptions{})
}
