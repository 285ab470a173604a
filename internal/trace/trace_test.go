package trace

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func sample() Trace {
	return Trace{
		{PC: 0x1000, Target: 0x2000, Kind: VirtualCall, Gap: 40},
		{PC: 0x1000, Target: 0x2400, Kind: VirtualCall, Gap: 45},
		{PC: 0x1010, Target: 0x3000, Kind: IndirectCall, Gap: 12},
		{PC: 0x1020, Target: 0x1004, Kind: Return, Gap: 8},
		{PC: 0x1030, Target: 0x1050, Kind: Cond, Gap: 4},
		{PC: 0x1040, Target: 0x4000, Kind: SwitchJump, Gap: 90},
		{PC: 0x1044, Target: 0x5000, Kind: IndirectJump, Gap: 3},
	}
}

func TestKindIndirect(t *testing.T) {
	want := map[Kind]bool{
		IndirectCall: true, IndirectJump: true, VirtualCall: true,
		SwitchJump: true, Return: false, Cond: false,
	}
	for k, w := range want {
		if k.Indirect() != w {
			t.Errorf("%v.Indirect() = %v, want %v", k, k.Indirect(), w)
		}
	}
}

func TestKindString(t *testing.T) {
	if IndirectJump.String() != "ijump" || Return.String() != "return" {
		t.Errorf("unexpected kind names: %v %v", IndirectJump, Return)
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range kind: %q", got)
	}
}

func TestIndirectFilter(t *testing.T) {
	ind := sample().Indirect()
	if len(ind) != 5 {
		t.Fatalf("Indirect() kept %d records, want 5", len(ind))
	}
	for _, r := range ind {
		if !r.Kind.Indirect() {
			t.Errorf("non-indirect record %v survived filter", r.Kind)
		}
	}
}

func TestCountsAndInstructions(t *testing.T) {
	tr := sample()
	if got := tr.CountKind(VirtualCall); got != 2 {
		t.Errorf("CountKind(VirtualCall) = %d, want 2", got)
	}
	if got := tr.Instructions(); got != 40+45+12+8+4+90+3 {
		t.Errorf("Instructions() = %d", got)
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []Trace{
		{{PC: 0x1001, Target: 0x2000, Kind: IndirectCall, Gap: 1}},
		{{PC: 0x1000, Target: 0x2002, Kind: IndirectCall, Gap: 1}},
		{{PC: 0x1000, Target: 0x2000, Kind: Kind(42), Gap: 1}},
		{{PC: 0x1000, Target: 0x2000, Kind: IndirectCall, Gap: 0}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip length %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], tr[i])
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	tr := make(Trace, 5000)
	for i := range tr {
		tr[i] = Record{
			PC:     rng.Uint32() &^ 3,
			Target: rng.Uint32() &^ 3,
			Kind:   Kind(rng.IntN(numKinds)),
			Gap:    1 + rng.Uint32N(1000),
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], tr[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("IBPT"),             // truncated after magic
		[]byte("IBPT\x02"),         // no sections
		[]byte("IBPT\x01\x05"),     // v1, an unsupported version
		[]byte("IBPT\x01\x01\x00"), // v1 again
	}
	for i, b := range cases {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestWriteCompactness(t *testing.T) {
	// A tight loop trace should encode in only a few bytes per record.
	tr := make(Trace, 10000)
	for i := range tr {
		tr[i] = Record{PC: 0x1000, Target: 0x2000 + uint32(i%4)*4, Kind: IndirectJump, Gap: 10}
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if perRec := float64(buf.Len()) / float64(len(tr)); perRec > 6 {
		t.Errorf("loop trace encodes at %.1f bytes/record, want <= 6", perRec)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sample())
	if s.Indirect != 5 || s.Returns != 1 || s.Conds != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if s.Sites != 4 {
		t.Errorf("Sites = %d, want 4", s.Sites)
	}
	if s.VCallFraction != 2.0/5.0 {
		t.Errorf("VCallFraction = %v", s.VCallFraction)
	}
	if s.MaxTargetsPerSite != 2 {
		t.Errorf("MaxTargetsPerSite = %d, want 2", s.MaxTargetsPerSite)
	}
	// 5 indirect branches at 4 sites with counts 2,1,1,1: 90% needs ceil(4.5)=5
	// branches -> 4 sites... counts sorted 2,1,1,1; cumulative 2,3,4,5.
	if got := s.Coverage[90]; got != 4 {
		t.Errorf("Coverage[90] = %d, want 4", got)
	}
	if got := s.Coverage[100]; got != 4 {
		t.Errorf("Coverage[100] = %d, want 4", got)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarizeSkewedCoverage(t *testing.T) {
	// One dominant site plus a long tail: 90% coverage should need far
	// fewer sites than 100%.
	tr := make(Trace, 0, 1100)
	for i := 0; i < 1000; i++ {
		tr = append(tr, Record{PC: 0x1000, Target: 0x2000, Kind: IndirectJump, Gap: 5})
	}
	for i := 0; i < 100; i++ {
		tr = append(tr, Record{PC: 0x2000 + uint32(i)*4, Target: 0x3000, Kind: IndirectCall, Gap: 5})
	}
	s := Summarize(tr)
	if s.Coverage[90] != 1 {
		t.Errorf("Coverage[90] = %d, want 1", s.Coverage[90])
	}
	if s.Coverage[100] != 101 {
		t.Errorf("Coverage[100] = %d, want 101", s.Coverage[100])
	}
	if s.Coverage[95]+1 > s.Coverage[99] && s.Coverage[95] != s.Coverage[99] {
		t.Errorf("coverage not monotone: %v", s.Coverage)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Indirect != 0 || s.InstrPerIndirect != 0 || s.Coverage[90] != 0 {
		t.Errorf("empty trace summary: %+v", s)
	}
}

func TestSitesForCoverageProperty(t *testing.T) {
	// The returned prefix really covers >= q percent, and the prefix one
	// shorter does not.
	f := func(raw []uint16, qi uint8) bool {
		counts := make([]int, 0, len(raw))
		total := 0
		for _, v := range raw {
			c := int(v%100) + 1
			counts = append(counts, c)
			total += c
		}
		if total == 0 {
			return true
		}
		for i := 1; i < len(counts); i++ { // insertion sort descending
			for j := i; j > 0 && counts[j] > counts[j-1]; j-- {
				counts[j], counts[j-1] = counts[j-1], counts[j]
			}
		}
		q := int(qi%100) + 1
		n := sitesForCoverage(counts, total, q)
		sum := 0
		for _, c := range counts[:n] {
			sum += c
		}
		if sum*100 < total*q {
			return false
		}
		if n > 1 {
			if (sum-counts[n-1])*100 >= total*q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDump(t *testing.T) {
	var buf bytes.Buffer
	if err := Dump(&buf, sample(), 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "\n"); n != 3 {
		t.Errorf("Dump wrote %d lines, want 3", n)
	}
	if !strings.Contains(out, "vcall") {
		t.Errorf("Dump output missing kind name:\n%s", out)
	}
	buf.Reset()
	if err := Dump(&buf, sample(), 0); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(sample()) {
		t.Errorf("Dump(0) wrote %d lines, want all %d", n, len(sample()))
	}
}
