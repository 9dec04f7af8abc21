// Package wiretest holds the property check shared by the fuzz targets of
// every binary message body (see package wire).
package wiretest

import (
	"bytes"
	"encoding"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// Body is the constraint on a binary body type T: *T encodes and decodes.
type Body[T any] interface {
	*T
	wire.Appender
	encoding.BinaryUnmarshaler
}

// CheckBody checks a body codec on one fuzz input:
//   - decoding raw never panics and never writes to raw;
//   - when it succeeds, the decoded value shares no bytes with raw, and its
//     encoding decodes to an equal value;
//   - want's encoding decodes to a value that encodes to the same bytes.
func CheckBody[T any, P Body[T]](t *testing.T, raw []byte, want T) {
	t.Helper()
	in := bytes.Clone(raw)
	var got T
	err := P(&got).UnmarshalBinary(in)
	if !bytes.Equal(in, raw) {
		t.Fatalf("decoding wrote to its input")
	}
	if err == nil {
		enc := encode[T, P](t, got)
		for i := range in {
			in[i] ^= 0xff
		}
		if again := encode[T, P](t, got); !bytes.Equal(enc, again) {
			t.Fatalf("decoded value aliases its input")
		}
		var back T
		if err := P(&back).UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", got, err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed %+v into %+v", got, back)
		}
	}
	enc := encode[T, P](t, want)
	var back T
	if err := P(&back).UnmarshalBinary(enc); err != nil {
		t.Fatalf("encoding of %+v does not decode: %v", want, err)
	}
	if again := encode[T, P](t, back); !bytes.Equal(enc, again) {
		t.Fatalf("round trip changed %+v into %+v", want, back)
	}
}

func encode[T any, P Body[T]](t *testing.T, v T) []byte {
	t.Helper()
	b, err := P(&v).AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode %+v: %v", v, err)
	}
	return b
}
