package wire

import (
	"testing"
	"testing/quick"
)

type body struct {
	A string `json:"a"`
	B int    `json:"b"`
}

func TestRoundTrip(t *testing.T) {
	payload, err := Marshal("t1", body{A: "x", B: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Topic != "t1" {
		t.Fatalf("topic %q", m.Topic)
	}
	var got body
	if err := Decode(m, &got); err != nil {
		t.Fatal(err)
	}
	if got.A != "x" || got.B != 3 {
		t.Fatalf("body %+v", got)
	}
}

func TestNilBody(t *testing.T) {
	payload, err := Marshal("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 0 {
		t.Fatalf("body = %q, want empty", m.Body)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Marshal("t", make(chan int)); err == nil {
		t.Error("unmarshalable body accepted")
	}
	if _, err := Unmarshal([]byte("{nope")); err == nil {
		t.Error("garbage envelope accepted")
	}
	m := Message{Topic: "t", Body: []byte("{bad")}
	var v body
	if err := Decode(m, &v); err == nil {
		t.Error("garbage body accepted")
	}
}

// Property: arbitrary topics and string bodies round-trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(topic, a string, b int) bool {
		payload, err := Marshal(topic, body{A: a, B: b})
		if err != nil {
			return false
		}
		m, err := Unmarshal(payload)
		if err != nil || m.Topic != topic {
			return false
		}
		var got body
		if err := Decode(m, &got); err != nil {
			return false
		}
		return got.A == a && got.B == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Batch values round-trip exactly and are always distinguishable from the
// single commands the SMR layers store.
func TestBatchRoundTrip(t *testing.T) {
	for _, cmds := range [][]string{
		{"one"},
		{"a", "b", "c"},
		{`{"id":"p0-1","key":"k","val":"v"}`, `{"id":"p1-9","key":"k2","val":""}`},
		{"", "with \"quotes\" and \\ slashes", "<html>&stuff"},
	} {
		v, err := EncodeBatch(cmds)
		if err != nil {
			t.Fatalf("encode %v: %v", cmds, err)
		}
		if !IsBatch(v) {
			t.Fatalf("encoded batch not recognized: %q", v)
		}
		got, err := DecodeBatch(v)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(cmds) {
			t.Fatalf("decode %v = %v", cmds, got)
		}
		for i := range cmds {
			if got[i] != cmds[i] {
				t.Fatalf("cmd %d: %q != %q", i, got[i], cmds[i])
			}
		}
	}
}

func TestBatchRejections(t *testing.T) {
	if IsBatch(`{"id":"p0-1"}`) || IsBatch("") || IsBatch("\x01") {
		t.Error("non-batch value classified as batch")
	}
	if _, err := EncodeBatch([]string{"ok", "\x01nested"}); err == nil {
		t.Error("command opening with the batch marker accepted")
	}
	if _, err := DecodeBatch("plain"); err == nil {
		t.Error("plain value decoded as batch")
	}
	if _, err := DecodeBatch(batchMagic + "{corrupt"); err == nil {
		t.Error("corrupt batch payload decoded")
	}
}

// Quick property: any marker-free command set survives the batch codec.
func TestBatchQuickRoundTrip(t *testing.T) {
	f := func(a, b, c string) bool {
		cmds := []string{a, b, c}
		v, err := EncodeBatch(cmds)
		if err != nil {
			// Only the reserved marker byte may be rejected.
			for _, s := range cmds {
				if len(s) > 0 && s[0] == 0x01 {
					return true
				}
			}
			return false
		}
		got, err := DecodeBatch(v)
		if err != nil || len(got) != 3 {
			return false
		}
		return got[0] == a && got[1] == b && got[2] == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
