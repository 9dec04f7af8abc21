package consensus

import (
	"fmt"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func FuzzMsg1B(f *testing.F) {
	f.Add([]byte{0x0c, 0x02, 0x01, 'v', 0x01, 0x00, 0x00}, int64(6), int64(1), "v", true, "", false)
	f.Add([]byte{0x02, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(-3), int64(0), "", false, "mine", true)
	f.Fuzz(func(t *testing.T, raw []byte, view, aview int64, val string, hasVal bool, mine string, hasMine bool) {
		wiretest.CheckBody(t, raw, msg1B{View: view, AView: aview, Val: val, HasVal: hasVal, Mine: mine, HasMine: hasMine})
	})
}

// FuzzMsg2A covers msg2B too (the same type).
func FuzzMsg2A(f *testing.F) {
	f.Add([]byte{0x04, 0x03, 'a', 'b', 'c'}, int64(2), "abc")
	f.Add([]byte{0x04, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(-1), "")
	f.Fuzz(func(t *testing.T, raw []byte, view int64, val string) {
		wiretest.CheckBody(t, raw, msg2A{View: view, Val: val})
	})
}

func FuzzMsgDec(f *testing.F) {
	f.Add([]byte{0x01, 'x'}, "x")
	f.Add([]byte{0x80}, "")
	f.Fuzz(func(t *testing.T, raw []byte, val string) {
		wiretest.CheckBody(t, raw, msgDec{Val: val})
	})
}

// batch16 is a 2B payload as group commit produces it: a 16-command batch
// of KV-sized commands.
func batch16(tb testing.TB) []byte {
	cmds := make([]string, 16)
	for i := range cmds {
		cmds[i] = fmt.Sprintf("\x03\x07p1-%04d\x05k%04d\x20value-%026d\x00", i, i*37, i)
	}
	v, err := wire.EncodeBatch(cmds)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := wire.Marshal("kv/slot1234/2b", msg2B{View: 7, Val: v})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func decode2B(payload []byte) (msg2B, error) {
	var b msg2B
	m, err := wire.Unmarshal(payload)
	if err == nil {
		err = wire.Decode(m, &b)
	}
	return b, err
}

// TestWire2B16Allocs gates the receive path of the hottest message at its
// measured 3 allocations + 1: the envelope copies only its topic, the 2B
// only its value, and the body struct escapes through Decode's interface.
func TestWire2B16Allocs(t *testing.T) {
	p := batch16(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decode2B(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs per 2B", allocs)
	if allocs > 3+1 {
		t.Fatalf("Unmarshal+Decode of a 16-command 2B: %v allocs, want <= 4", allocs)
	}
}

func BenchmarkWire2B16Encode(b *testing.B) {
	m, err := wire.Unmarshal(batch16(b))
	if err != nil {
		b.Fatal(err)
	}
	var body msg2B
	if err := wire.Decode(m, &body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body.Val)))
	for i := 0; i < b.N; i++ {
		if _, err := wire.Marshal(m.Topic, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWire2B16Decode(b *testing.B) {
	p := batch16(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		if _, err := decode2B(p); err != nil {
			b.Fatal(err)
		}
	}
}
