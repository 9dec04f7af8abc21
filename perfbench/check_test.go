package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/lincheck"
	"repro/internal/smr"
)

func everywhere(v string, found bool) ([]string, []bool) {
	return []string{v, v, v, v}, []bool{found, found, found, found}
}

func TestKVCheckCatchesLostWrite(t *testing.T) {
	h := newKVHistory(1)
	v := h.newWrite(0)
	h.ack(0, v, smr.SetResult{Slot: 5})
	if err := h.checkFinal(0, []string{v, v, v, v}, []bool{true, true, true, true}); err != nil {
		t.Fatalf("control: %v", err)
	}
	vals, found := everywhere("", false)
	if err := h.checkFinal(0, vals, found); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("lost write passed the check: %v", err)
	}
}

func TestKVCheckCatchesStaleFinalValue(t *testing.T) {
	h := newKVHistory(1)
	old, latest, failed := h.newWrite(0), h.newWrite(0), h.newWrite(0)
	h.ack(0, latest, smr.SetResult{Slot: 7, Index: 2})
	h.ack(0, old, smr.SetResult{Slot: 7, Index: 1}) // acknowledged later, ordered earlier
	h.ack(0, failed, smr.SetResult{Err: context.DeadlineExceeded})
	for _, ok := range []string{latest, failed} {
		vals, found := everywhere(ok, true)
		if err := h.checkFinal(0, vals, found); err != nil {
			t.Fatalf("control %q: %v", ok, err)
		}
	}
	vals, found := everywhere(old, true)
	if err := h.checkFinal(0, vals, found); err == nil {
		t.Fatal("stale final value passed the check")
	}
	if err := h.checkFinal(0, []string{latest, latest, old, latest}, []bool{true, true, true, true}); err == nil {
		t.Fatal("processes disagreeing on the final value passed the check")
	}
}

func TestKVCheckCatchesBadReads(t *testing.T) {
	h := newKVHistory(2)
	v0 := h.newWrite(0)
	h.read(0, time.Now(), v0, true)
	h.read(1, time.Now(), "", false)
	if err := h.readErr(); err != nil {
		t.Fatalf("control: %v", err)
	}
	for _, bad := range []func(){
		func() { h.read(1, time.Now(), v0, true) },     // another key's value
		func() { h.read(0, time.Now(), "0.99", true) }, // never written
		func() {
			h.ack(0, v0, smr.SetResult{Slot: 1})
			time.Sleep(time.Millisecond)
			h.read(0, time.Now(), "", false) // misses an acknowledged write
		},
	} {
		n := len(h.bad)
		bad()
		if len(h.bad) != n+1 {
			t.Fatalf("bad read %d passed the check", n)
		}
	}
}

// TestKVCheckCatchesPlantedStaleValue runs a small live store, then writes
// an old value back behind the history's back: the final-state check must
// refuse the run.
func TestKVCheckCatchesPlantedStaleValue(t *testing.T) {
	w := workloads[0]
	w.objects = 4
	d, err := openKV(&w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res := d.write(ctx, 0, nil); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := d.check(ctx); err != nil {
		t.Fatalf("control: %v", err)
	}
	if _, err := d.kv.Set(ctx, d.keys[0], "0.0"); err != nil {
		t.Fatal(err)
	}
	if err := d.check(ctx); err == nil {
		t.Fatal("planted stale value passed the check")
	}
}

func TestRegisterCheckCatchesBadVersionHistory(t *testing.T) {
	history := func(readVal string, readVer uint64) []*lincheck.History {
		h := lincheck.NewHistory()
		id := h.Begin(0, lincheck.KindWrite, "a")
		h.End(id, "", 1, 0)
		id = h.Begin(1, lincheck.KindWrite, "b")
		h.End(id, "", 2, 1)
		id = h.Begin(2, lincheck.KindRead, "")
		h.End(id, readVal, readVer, int(readVer)-1)
		return []*lincheck.History{lincheck.NewHistory(), h}
	}
	if err := checkRegisters(history("b", 2)); err != nil {
		t.Fatalf("control: %v", err)
	}
	if err := checkRegisters(history("a", 1)); err == nil {
		t.Fatal("a read of an overwritten version passed the check")
	}
}
