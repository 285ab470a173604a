package serve

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/trace"
)

// TestFrontEndBuildsOnlyWhenAsked: ibpserved's front end builds each
// session's predictor, ibprouter's only checks and names it, and both name
// it as the built predictor names itself.
func TestFrontEndBuildsOnlyWhenAsked(t *testing.T) {
	specs := []cli.PredictorFlags{defaultFlags()}
	for _, mutate := range []func(*cli.PredictorFlags){
		func(f *cli.PredictorFlags) { f.Pred = "ittage" },
		func(f *cli.PredictorFlags) { f.Hybrid, f.Table, f.Entries = "3,1", "assoc4", 1024 },
		func(f *cli.PredictorFlags) { f.Pred, f.Table, f.Entries = "btb-2bc", "tagless", 256 },
	} {
		f := defaultFlags()
		mutate(&f)
		specs = append(specs, f)
	}
	for _, build := range []bool{false, true} {
		for _, pf := range specs {
			want, err := pf.Build()
			if err != nil {
				t.Fatal(err)
			}
			h := openOne(t, build, pf)
			if (h.Pred != nil) != build {
				t.Errorf("Build=%v, %s: handshake built %v", build, want.Name(), h.Pred)
			}
			if h.Name != want.Name() {
				t.Errorf("Build=%v: handshake named %q, want %q", build, h.Name, want.Name())
			}
		}
	}
}

// openOne sends one Hello for pf to a fresh front end and returns the
// handshake its Open received.
func openOne(t *testing.T, build bool, pf cli.PredictorFlags) Handshake {
	t.Helper()
	got := make(chan Handshake, 1)
	limits, log := ClientDefaults(Limits{}, nil)
	fe, err := NewFrontEnd(FrontEndConfig{
		Predictor: defaultFlags(),
		Build:     build,
		Limits:    limits,
		Log:       log,
		Pool:      trace.NewBufferPool(),
		Sessions:  sessiontrack.NewRegistry(sessiontrack.Options{}),
		Open: func(c *Conn, h Handshake) {
			c.Close()
			got <- h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	defer fe.Close()
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := json.Marshal(Hello{Predictor: &pf})
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(append([]byte(Preamble), ProtocolVersion))
	fw := trace.NewFrameWriter(conn)
	if err := fw.WriteFrame(FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-got:
		return h
	case <-time.After(10 * time.Second):
		t.Fatal("no handshake reached Open")
	}
	return Handshake{}
}
