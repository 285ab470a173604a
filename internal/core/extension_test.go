package core

import (
	"strings"
	"testing"
)

func TestNextBranchPredictsTargetsLikeTwoLevel(t *testing.T) {
	stream := repeat(0x1000, []uint32{0x2000, 0x2004, 0x2000, 0x2008}, 200)
	nb, err := NewNextBranch(2, "assoc4", 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, total := run(nb, stream)
	if m > total/10 {
		t.Errorf("next-branch target prediction: %d/%d misses", m, total)
	}
	if !strings.HasPrefix(nb.Name(), "nextbranch[p=2") {
		t.Errorf("Name = %q", nb.Name())
	}
}

func TestNextBranchPredictsNextSite(t *testing.T) {
	// Two sites strictly alternating: after site A the next indirect
	// branch is always site B and vice versa.
	nb, err := NewNextBranch(1, "assoc4", 256)
	if err != nil {
		t.Fatal(err)
	}
	var stream []access
	for i := 0; i < 200; i++ {
		stream = append(stream, access{0x1000, 0x2000 + uint32(i%3)*4})
		stream = append(stream, access{0x1100, 0x3000 + uint32(i%2)*4})
	}
	misses := 0
	for i, a := range stream {
		if next, ok := nb.PredictNext(a.pc); i > 20 {
			var want uint32 = 0x1000
			if a.pc == 0x1000 {
				want = 0x1100
			}
			if !ok || next != want {
				misses++
			}
		}
		nb.Predict(a.pc)
		nb.Update(a.pc, a.target)
	}
	if misses > 10 {
		t.Errorf("next-site prediction missed %d times on alternating sites", misses)
	}
	nb.Reset()
	if _, ok := nb.PredictNext(0x1000); ok {
		t.Error("next prediction survived Reset")
	}
}

func TestNextBranchErrors(t *testing.T) {
	if _, err := NewNextBranch(-1, "assoc2", 64); err == nil {
		t.Error("negative path accepted")
	}
	if _, err := NewNextBranch(2, "bogus", 64); err == nil {
		t.Error("bad table accepted")
	}
	if _, err := NewNextBranch(2, "exact", 0); err == nil {
		t.Error("exact table accepted")
	}
}

func TestITTAGELearnsShortCycle(t *testing.T) {
	it, err := NewITTAGE(4, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	stream := repeat(0x1000, []uint32{0x2000, 0x2004, 0x2000, 0x2008}, 300)
	m, total := run(it, stream)
	if m > total/10 {
		t.Errorf("ittage on period-4 cycle: %d/%d misses", m, total)
	}
}

func TestITTAGEUsesLongHistories(t *testing.T) {
	// A period-12 cycle with heavy repetition needs deep history; the
	// geometric banks should capture it where a short fixed path cannot.
	cycle := make([]uint32, 12)
	for i := range cycle {
		if i%2 == 0 {
			cycle[i] = 0x2000
		} else {
			cycle[i] = 0x2100 + uint32(i)*4
		}
	}
	stream := repeat(0x1000, cycle, 400)
	it, err := NewITTAGE(5, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	mIT, total := run(it, stream)
	short := MustTwoLevel(Config{PathLength: 1, Precision: AutoPrecision})
	mShort, _ := run(short, stream)
	t.Logf("ittage=%d short=%d total=%d", mIT, mShort, total)
	if mIT >= mShort {
		t.Errorf("ittage (%d) should beat p=1 (%d) on a deep cycle", mIT, mShort)
	}
	if mIT > total/5 {
		t.Errorf("ittage misses %d/%d on deterministic cycle", mIT, total)
	}
}

func TestITTAGEAdaptsAcrossPhases(t *testing.T) {
	// Alternate two behaviours at one site; the allocator must recover
	// after each phase flip.
	it, err := NewITTAGE(4, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	var stream []access
	for phase := 0; phase < 10; phase++ {
		tgt := uint32(0x2000 + phase%2*0x40)
		for i := 0; i < 200; i++ {
			stream = append(stream, access{0x1000, tgt})
		}
	}
	m, total := run(it, stream)
	if m > total/10 {
		t.Errorf("ittage phase adaptation: %d/%d misses", m, total)
	}
	it.Reset()
	if _, ok := it.Predict(0x1000); ok {
		t.Error("prediction survived Reset")
	}
}

func TestITTAGEStorageAndErrors(t *testing.T) {
	it, err := NewITTAGE(4, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	storage := 0
	for _, st := range it.TableStats() {
		storage += st.Capacity
	}
	if storage != 4*256+512 {
		t.Errorf("Storage = %d", storage)
	}
	if !strings.HasPrefix(it.Name(), "ittage[4x256") {
		t.Errorf("Name = %q", it.Name())
	}
	for _, c := range []struct{ banks, entries, hist int }{
		{0, 64, 2}, {20, 64, 2}, {3, 100, 2}, {3, 0, 2}, {3, 64, 0},
	} {
		if _, err := NewITTAGE(c.banks, c.entries, c.hist); err == nil {
			t.Errorf("NewITTAGE(%+v) accepted", c)
		}
	}
}

func TestITTAGEBeatsBTBOnMixedStream(t *testing.T) {
	stream := mixedStream(6000, 31)
	it, err := NewITTAGE(5, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	mIT, _ := run(it, stream)
	btb := NewBTB(nil, UpdateTwoMiss)
	mBTB, total := run(btb, stream)
	t.Logf("ittage=%d btb=%d total=%d", mIT, mBTB, total)
	if mIT >= mBTB {
		t.Errorf("ittage (%d) should beat BTB (%d)", mIT, mBTB)
	}
}

func TestDualPathSizes(t *testing.T) {
	h, err := NewDualPathSizes(3, 2048, 1, 256, "assoc4")
	if err != nil {
		t.Fatal(err)
	}
	m, total := run(h, repeat(0x1000, []uint32{0x2000, 0x2004, 0x2000, 0x2008}, 200))
	if m > total/10 {
		t.Errorf("uneven hybrid: %d/%d misses", m, total)
	}
	if _, err := NewDualPathSizes(3, 0, 1, 256, "assoc4"); err == nil {
		t.Error("zero-size component accepted")
	}
	if _, err := NewDualPathSizes(3, 64, 1, 64, "bogus"); err == nil {
		t.Error("bad table kind accepted")
	}
}
