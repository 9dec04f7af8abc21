package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// rawBody is a binary body of arbitrary bytes.
type rawBody []byte

func (r rawBody) AppendBinary(b []byte) ([]byte, error) { return append(b, r...), nil }

// FuzzEnvelope: arbitrary payloads never panic Unmarshal, a decoded
// envelope re-marshals to an equal one, and any topic and body round-trip
// (a plain topic keeps the fixed `{"t":"<topic>"` prefix topic readers
// rely on).
func FuzzEnvelope(f *testing.F) {
	f.Add([]byte(`{"t":"smr/slot3/2b"`+"\x00\x02\x01v"), "smr/slot3/2b", []byte("\x02\x01v"))
	f.Add([]byte(`{"t":"a\"b"`+"\x00"), `needs "escaping"\`, []byte{})
	f.Add([]byte("{garbage"), "ctrl\x01topic\xff", []byte{0})
	f.Fuzz(func(t *testing.T, payload []byte, topic string, body []byte) {
		in := bytes.Clone(payload)
		if m, err := Unmarshal(in); err == nil {
			again, err := Marshal(m.Topic, rawBody(m.Body))
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(again)
			if err != nil || back.Topic != m.Topic || !bytes.Equal(back.Body, m.Body) {
				t.Fatalf("re-marshal of %+v gave %+v (err %v)", m, back, err)
			}
		}
		if !bytes.Equal(in, payload) {
			t.Fatal("Unmarshal wrote to its input")
		}
		p, err := Marshal(topic, rawBody(body))
		if err != nil {
			t.Fatal(err)
		}
		if plainTopic(topic) && !bytes.HasPrefix(p, []byte(`{"t":"`+topic+`"`)) {
			t.Fatalf("plain topic %q lost the fixed prefix: %q", topic, p)
		}
		m, err := Unmarshal(p)
		if err != nil || m.Topic != topic || !bytes.Equal(m.Body, body) {
			t.Fatalf("round trip of (%q, %q) gave %+v (err %v)", topic, body, m, err)
		}
	})
}

// FuzzDecodeBatch: arbitrary values never panic DecodeBatch, a decoded
// batch re-encodes to an equal one, and marker-free commands round-trip.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(batchMagic+"\x02\x01a\x00", "a", "", "\x03k")
	f.Add(batchMagic+"\xff\xff\xff\xff\x0f", "\x01x", "y", "z")
	f.Fuzz(func(t *testing.T, v, a, b, c string) {
		if cmds, err := DecodeBatch(v); err == nil {
			checkBatch(t, cmds)
		}
		checkBatch(t, []string{a, b, c})
	})
}

func checkBatch(t *testing.T, cmds []string) {
	v, err := EncodeBatch(cmds)
	if err != nil {
		for _, c := range cmds {
			if len(c) > 0 && c[0] == batchMagic[0] {
				return // the reserved marker byte is the only rejection
			}
		}
		t.Fatal(err)
	}
	got, err := DecodeBatch(v)
	if err != nil || !reflect.DeepEqual(got, cmds) {
		t.Fatalf("batch %q round-tripped to %q (err %v)", cmds, got, err)
	}
}

// FuzzDecodeCheckpoint: arbitrary values never panic DecodeCheckpoint, a
// decoded checkpoint re-encodes to an equal one, and checkpoints
// round-trip byte-identically.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(checkpointMagic+"\x08\x00\x00\x01\x01k\x01v", int64(4), int64(2), "m", "k", "v")
	f.Add(checkpointMagic+"\x02\x00\x00\xff\xff\xff\xff\x0f", int64(0), int64(-1), "", "", "")
	f.Fuzz(func(t *testing.T, v string, frontier, metaSlot int64, meta, k, val string) {
		if c, err := DecodeCheckpoint(v); err == nil {
			checkCheckpoint(t, c)
		}
		if frontier >= 0 {
			checkCheckpoint(t, Checkpoint{Frontier: frontier, MetaSlot: metaSlot, Meta: meta,
				State: map[string]string{k: val, k + "/2": val + val}})
		}
	})
}

func checkCheckpoint(t *testing.T, c Checkpoint) {
	v, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(v)
	if err != nil || !reflect.DeepEqual(got, c) {
		t.Fatalf("checkpoint %+v round-tripped to %+v (err %v)", c, got, err)
	}
	if again, _ := EncodeCheckpoint(got); again != v {
		t.Fatalf("equal checkpoints encode differently: %q vs %q", v, again)
	}
}

// TestReaderRejectsOversizedCounts: a count or length larger than the
// remaining input fails before the caller allocates for it.
func TestReaderRejectsOversizedCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}
	r := NewReader(huge)
	if n := r.Count(1); n != 0 || r.Finish() == nil {
		t.Fatalf("count %d accepted from %d bytes", n, len(huge))
	}
	r = NewReader(huge)
	if s := r.Str(); s != "" || r.Finish() == nil {
		t.Fatalf("string %q accepted", s)
	}
	if _, err := DecodeBatch(batchMagic + "\x03\x01a"); err == nil {
		t.Fatal("batch claiming 3 commands in 2 bytes decoded")
	}
	if _, err := DecodeCheckpoint(checkpointMagic + "\x02\x00\x00\x05\x01k"); err == nil {
		t.Fatal("checkpoint claiming 5 entries in 2 bytes decoded")
	}
}
