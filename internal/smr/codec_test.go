package smr

import (
	"fmt"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func FuzzIdle1B(f *testing.F) {
	f.Add([]byte{0x06, 0x01, 0x00, 0x80, 0x02}, int64(3), int64(0), int64(128))
	f.Add([]byte{0x06, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(1), int64(-1), int64(1))
	f.Fuzz(func(t *testing.T, raw []byte, view, lo, hi int64) {
		wiretest.CheckBody(t, raw, smrIdle1B{View: view, Ranges: [][2]int64{{lo, hi}, {hi, hi + 1}}})
	})
}

func FuzzDecs(f *testing.F) {
	f.Add([]byte{0x01, 0x0a, 0x01, 'v'}, int64(5), "v")
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x00}, int64(-2), "")
	f.Fuzz(func(t *testing.T, raw []byte, slot int64, val string) {
		wiretest.CheckBody(t, raw, smrDecs{{Slot: slot, Val: val}, {Slot: slot + 1, Val: val + val}})
	})
}

func FuzzCkpt(f *testing.F) {
	f.Add([]byte{0x80, 0x10}, int64(1024))
	f.Fuzz(func(t *testing.T, raw []byte, frontier int64) {
		wiretest.CheckBody(t, raw, smrCkpt{Frontier: frontier})
	})
}

func FuzzSnap(f *testing.F) {
	f.Add([]byte{0x10, 0x01, 's', 0x01, 0x10, 0x01, 'v'}, int64(8), "s", int64(8), "v")
	f.Add([]byte{0x10, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(0), "", int64(0), "")
	f.Fuzz(func(t *testing.T, raw []byte, frontier int64, state string, slot int64, val string) {
		wiretest.CheckBody(t, raw, smrSnap{Frontier: frontier, State: state, Decs: smrDecs{{Slot: slot, Val: val}}})
	})
}

// FuzzKVCommand: arbitrary records never panic the decoder, a decoded
// command re-encodes to an equal one, and commands round-trip; no record
// opens with the batch marker.
func FuzzKVCommand(f *testing.F) {
	f.Add("\x03\x04p0-1\x01k\x01v\x00", "p1-9", "key", "val", "")
	f.Add("\x03\xff\xff\xff\xff\x0f", "", "", "", "meta")
	f.Fuzz(func(t *testing.T, rec, id, key, val, meta string) {
		if c, err := decodeKVCommand(rec); err == nil {
			checkKVCommand(t, c)
		}
		checkKVCommand(t, kvCommand{ID: id, Key: key, Val: val, Meta: meta})
	})
}

func checkKVCommand(t *testing.T, c kvCommand) {
	rec := c.encode()
	if checkCmd(rec) != nil {
		t.Fatalf("record %q is not a valid log command", rec)
	}
	got, err := decodeKVCommand(rec)
	if err != nil || got != c {
		t.Fatalf("command %+v round-tripped to %+v (err %v)", c, got, err)
	}
}

// TestApplySlotAllocs gates the KV apply of a 16-command group commit at
// its measured 17 allocations + 1: one for the batch's command slice and
// one per command to detach its key and value from the batch.
func TestApplySlotAllocs(t *testing.T) {
	cmds := make([]string, 16)
	for i := range cmds {
		cmds[i] = kvCommand{ID: fmt.Sprintf("p1-%d", i), Key: fmt.Sprintf("k%04d", i*37), Val: fmt.Sprintf("value-%026d", i)}.encode()
	}
	v, err := wire.EncodeBatch(cmds)
	if err != nil {
		t.Fatal(err)
	}
	kv := &KV{applied: make(map[string]string)}
	kv.applySlot(0, v) // the keys exist from here on: no map growth below
	allocs := testing.AllocsPerRun(100, func() { kv.applySlot(1, v) })
	if kv.corrupt != nil || len(kv.applied) != 16 {
		t.Fatalf("apply: corrupt %v, %d keys", kv.corrupt, len(kv.applied))
	}
	t.Logf("%v allocs per applySlot", allocs)
	if allocs > 17+1 {
		t.Fatalf("applySlot of a 16-command batch: %v allocs, want <= 18", allocs)
	}
}
