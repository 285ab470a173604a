// Command ibprouter is the fault-tolerant cluster ingress for a fleet of
// ibpserved backends. Clients speak the ordinary IBPT wire protocol to the
// router; the router places each session onto a backend by rendezvous
// hashing of its session id as it opens, health-checks the fleet, and keeps a
// bounded per-session frame journal so that a backend dying mid-session is
// repaired by replaying the session prefix onto a survivor — the client's
// final summary is bit-identical to an uninterrupted run. The fleet is fixed
// by -backends for the router's lifetime; -backends may list it in any
// order, since the placement depends only on the set.
//
// SIGTERM or SIGINT drains the router gracefully: no new sessions are
// accepted and live ones run to completion within the drain budget.
//
// Examples:
//
//	ibprouter -addr 127.0.0.1:9680 -backends 127.0.0.1:9670,127.0.0.1:9671
//	ibprouter -backends host1:9670,host2:9670 -probe 500ms -fails 2 -metrics 127.0.0.1:9092
//	ibprouter -backends host1:9670,host2:9670 -journal 16777216 -summaryjson run.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/cluster"
)

func main() { cli.Main("ibprouter", run) }

// run is ibprouter with its arguments, streams and signal context made
// explicit, so tests drive it in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var (
		d              cli.Daemon
		cfg            cluster.Config
		backends       string
		backendMetrics string
	)
	fs := flag.NewFlagSet("ibprouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	d.Register(fs, "127.0.0.1:9680")
	fs.StringVar(&backends, "backends", "", "comma-separated ibpserved addresses (required)")
	fs.StringVar(&backendMetrics, "backendmetrics", "", "comma-separated backend -metrics addresses, parallel to -backends; enables the cluster-wide /sessions fan-in")
	fs.IntVar(&cfg.Window, "window", 0, "max unacknowledged frames per session (0 = default)")
	fs.IntVar(&cfg.MaxFrameRecords, "maxrecords", 0, "max records per frame (0 = default)")
	fs.IntVar(&cfg.MaxFramePayload, "maxpayload", 0, "max frame payload bytes (0 = default)")
	fs.Int64Var(&cfg.JournalBytes, "journal", 0, "per-session replay journal budget in bytes (0 = default 64 MiB, negative = unbounded)")
	fs.DurationVar(&cfg.ProbeInterval, "probe", 0, "health probe interval (0 = default)")
	fs.DurationVar(&cfg.ProbeTimeout, "probetimeout", 0, "per-probe connect timeout (0 = default)")
	fs.IntVar(&cfg.FailThreshold, "fails", 0, "consecutive probe failures to mark a backend down (0 = default)")
	fs.DurationVar(&cfg.DialTimeout, "dialtimeout", 0, "per-attempt backend dial timeout (0 = default)")
	fs.IntVar(&cfg.DialRetries, "dialretries", 0, "backend dial retries per candidate (0 = default)")
	fs.DurationVar(&cfg.DialBackoff, "dialbackoff", 0, "initial backend dial backoff (0 = default)")
	fs.DurationVar(&cfg.MaxDialBackoff, "maxdialbackoff", 0, "backend dial backoff cap (0 = default)")
	fs.DurationVar(&cfg.ReadTimeout, "readtimeout", 0, "per-frame client read timeout (0 = default)")
	fs.DurationVar(&cfg.WriteTimeout, "writetimeout", 0, "client flush timeout (0 = default)")
	fs.StringVar(&cfg.TunerPolicy, "tunerpolicy", "", "tuner policy pinned into forwarded Hellos so every backend (including failover replacements) tunes identically; backends need -tuner")
	cfg.Predictor.Register(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := cfg.Predictor.CheckBuild(); err != nil {
		return err
	}
	cfg.Backends = splitBackends(backends)
	if len(cfg.Backends) == 0 {
		return errors.New("no backends: pass -backends host:port[,host:port...]")
	}
	if backendMetrics != "" {
		maddrs := splitBackends(backendMetrics)
		if len(maddrs) != len(cfg.Backends) {
			return fmt.Errorf("-backendmetrics has %d entries, -backends has %d (they are parallel lists)", len(maddrs), len(cfg.Backends))
		}
		cfg.BackendMetrics = make(map[string]string, len(maddrs))
		for i, addr := range cfg.Backends {
			cfg.BackendMetrics[addr] = maddrs[i]
		}
	}
	if err := d.Start("ibprouter", "", stdout, stderr); err != nil {
		return err
	}
	cfg.Flight, cfg.Log = d.Flight, d.Log
	r, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	return d.Run(ctx, r, cli.RunOptions{
		// The fan-in merges backend /sessions into the cluster view;
		// /sessions/local stays the router's own registry.
		Source:   r.Fanin(0),
		Banner:   fmt.Sprintf(", %d backends", len(cfg.Backends)),
		Backends: func() any { return r.BackendStatuses() },
	})
}

func splitBackends(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
