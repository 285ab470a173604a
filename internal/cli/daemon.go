package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/telemetry"
)

// Daemon is the process lifecycle ibpserved and ibprouter share: their
// common flags, the logger, telemetry registry and flight recorder, the
// metrics mux with /sessions and /debug/flightrecorder, the listener, the
// drain when the run's context ends, and the -summaryjson run summary.
// Register declares the flags, Start builds the shared parts the service
// needs, and Run serves the service until its context ends.
type Daemon struct {
	Addr         string
	MetricsAddr  string
	SummaryJSON  string
	LogLevel     string
	FlightCap    int
	SLO          time.Duration
	ReadOnly     bool
	DrainTimeout time.Duration

	// Built by Start.
	Log       *slog.Logger
	Telemetry *telemetry.Registry // nil unless -metrics or -summaryjson
	Flight    *flight.Recorder    // nil unless -flightrecorder

	name   string
	tag    string
	stdout io.Writer
}

// Register declares the shared flags on fs; addr is the default -addr.
func (d *Daemon) Register(fs *flag.FlagSet, addr string) {
	fs.StringVar(&d.Addr, "addr", addr, "listen address")
	fs.StringVar(&d.MetricsAddr, "metrics", "", "serve /metrics and /vars on this address")
	fs.StringVar(&d.SummaryJSON, "summaryjson", "", "write a JSON run summary to this file on exit")
	fs.StringVar(&d.LogLevel, "log", "info", "structured log level: debug, info, warn, error, off")
	fs.IntVar(&d.FlightCap, "flightrecorder", 0, "trace the last N frames in an in-memory flight recorder (0 = off, served at /debug/flightrecorder on the -metrics address)")
	fs.DurationVar(&d.SLO, "slo", 0, "log a per-hop breakdown for frames slower than this end to end (0 = off; needs -flightrecorder)")
	fs.BoolVar(&d.ReadOnly, "readonly", false, "reject mutating admin verbs (kill/drain/retune) on the -metrics mux")
	fs.DurationVar(&d.DrainTimeout, "draintimeout", 30*time.Second, "graceful drain budget after SIGTERM/SIGINT")
}

// Start builds the logger on stderr, the telemetry registry and the flight
// recorder. name prefixes the daemon's stdout lines and names its flight
// recorder; a non-empty tag labels the log, the recorder and the summary.
// Call it before building the service, which resolves its metric handles
// against the registry.
func (d *Daemon) Start(name, tag string, stdout, stderr io.Writer) error {
	level, err := telemetry.ParseLevel(d.LogLevel)
	if err != nil {
		return err
	}
	d.name, d.tag, d.stdout = name, tag, stdout
	d.Log = telemetry.NewLogger(stderr, level)
	service := name
	if tag != "" {
		d.Log = d.Log.With("tag", tag)
		service += "-" + tag
	}
	if d.MetricsAddr != "" || d.SummaryJSON != "" {
		d.Telemetry = telemetry.Enable(nil)
	}
	if d.FlightCap > 0 {
		d.Flight = flight.NewRecorder(flight.Options{
			Service:  service,
			Capacity: d.FlightCap,
			SLO:      d.SLO,
			Log:      d.Log,
		})
		d.Log.Info("flight recorder on", "capacity", d.FlightCap, "slo", d.SLO)
	}
	return nil
}

// Service is what a Daemon runs: a serve.Server or a cluster.Router.
type Service interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	Sessions() *sessiontrack.Registry
}

// RunOptions carries what one daemon adds to the shared lifecycle.
type RunOptions struct {
	// Source, when set, serves /sessions in place of the service's own
	// registry (the router's cluster-wide fan-in).
	Source sessiontrack.Source
	// Banner ends the stdout "listening on" line.
	Banner string
	// Backends, when set, fills the run summary's backends after the drain.
	Backends func() any
}

// RunSummary is the -summaryjson artifact: enough for CI to assert a clean
// drain and archive the run's counters.
type RunSummary struct {
	Addr     string             `json:"addr"`
	Tag      string             `json:"tag,omitempty"`
	Backends any                `json:"backends,omitempty"`
	Graceful bool               `json:"graceful"`
	Signal   string             `json:"signal,omitempty"`
	Uptime   string             `json:"uptime"`
	Flight   *flight.Stats      `json:"flight,omitempty"`
	Metrics  telemetry.Snapshot `json:"metrics,omitempty"`
}

// Run serves svc on -addr until ctx ends, then drains it within
// -draintimeout and writes the run summary. A drain cut short, by the
// budget or by a second signal under Main, is an error.
func (d *Daemon) Run(ctx context.Context, svc Service, opt RunOptions) error {
	if d.MetricsAddr != "" {
		mounts := []func(*http.ServeMux){
			func(mux *http.ServeMux) {
				sessiontrack.Mount(mux, sessiontrack.HTTPConfig{
					Source:    opt.Source,
					Local:     svc.Sessions(),
					Telemetry: d.Telemetry,
					Flight:    d.Flight,
					ReadOnly:  d.ReadOnly,
				})
			},
		}
		if d.Flight != nil {
			mounts = append(mounts, func(mux *http.ServeMux) {
				mux.Handle("/debug/flightrecorder", d.Flight.Handler())
			})
		}
		msrv, maddr, err := telemetry.ServeMetrics(d.MetricsAddr, d.Telemetry, mounts...)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer msrv.Close()
		d.Log.Info("metrics endpoint up", "addr", maddr)
	}
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	start := time.Now()
	fmt.Fprintf(d.stdout, "%s: listening on %s%s\n", d.name, ln.Addr(), opt.Banner)

	serveErr := make(chan error, 1)
	go func() { serveErr <- svc.Serve(ln) }()
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	sum := RunSummary{Addr: ln.Addr().String(), Tag: d.tag}
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), d.DrainTimeout)
	defer cancel()
	if sig, ok := context.Cause(ctx).(*Signal); ok {
		sum.Signal = sig.String()
		go func() {
			select {
			case <-sig.again:
				d.Log.Warn("second signal: forcing shutdown")
				cancel()
			case <-drain.Done():
			}
		}()
	}
	d.Log.Info("signal received, draining", "signal", sum.Signal, "budget", d.DrainTimeout,
		"sessions", svc.Sessions().Len())
	err = svc.Shutdown(drain)
	cancel()
	<-serveErr
	sum.Graceful = err == nil
	if err != nil {
		d.Log.Warn("drain incomplete, sessions cut", "err", err)
	}
	sum.Uptime = time.Since(start).String()
	if opt.Backends != nil {
		sum.Backends = opt.Backends()
	}
	if d.Flight != nil {
		st := d.Flight.Stats()
		sum.Flight = &st
	}
	sum.Metrics = d.Telemetry.Snapshot()
	if d.SummaryJSON != "" {
		b, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(d.SummaryJSON, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !sum.Graceful {
		return errors.New("drain timed out; live sessions were cut")
	}
	fmt.Fprintf(d.stdout, "%s: drained cleanly\n", d.name)
	return nil
}

// Signal is the cancellation cause Main gives a run's context: the signal
// that started the drain. The next one forces the cut.
type Signal struct {
	os.Signal
	again chan struct{}
}

func (s *Signal) Error() string { return "received " + s.String() }

// usageError is a flag-parse failure the flag package already reported.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

// ParseFlags parses args into fs, which must use flag.ContinueOnError. A
// failure, -h included, comes back already reported on fs's output, for
// Main to turn into the flag package's exit status.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// Main runs a daemon as the process: run gets the command-line arguments,
// the standard streams, and a context that the first SIGTERM or SIGINT
// cancels (its cause is a *Signal); a second signal forces the drain's
// cut. The exit status is 0 on success or -h, 2 on a bad flag, and 1, with
// the error on stderr, on any other failure.
func Main(name string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error) {
	sigs := make(chan os.Signal, 2) // the two signals Main acts on
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		sig := &Signal{Signal: <-sigs, again: make(chan struct{})}
		cancel(sig)
		<-sigs
		close(sig.again)
	}()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	var ue usageError
	switch {
	case err == nil:
	case errors.As(err, &ue):
		if !errors.Is(ue.err, flag.ErrHelp) {
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}
