package consensus

import (
	"encoding/binary"

	"repro/internal/wire"
)

// Binary bodies (see package wire for the primitives). Every field is
// written in declaration order:
//
//	msg1B:  varint View, varint AView, string Val, bool HasVal, string Mine, bool HasMine
//	msg2A:  varint View, string Val (msg2B is the same type)
//	msgDec: string Val

func (b msg1B) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendVarint(binary.AppendVarint(buf, b.View), b.AView)
	buf = wire.AppendBool(wire.AppendString(buf, b.Val), b.HasVal)
	return wire.AppendBool(wire.AppendString(buf, b.Mine), b.HasMine), nil
}

func (b *msg1B) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	*b = msg1B{View: r.Varint(), AView: r.Varint(), Val: r.Str(), HasVal: r.Bool(), Mine: r.Str(), HasMine: r.Bool()}
	return r.Finish()
}

func (a msg2A) AppendBinary(buf []byte) ([]byte, error) {
	return wire.AppendString(binary.AppendVarint(buf, a.View), a.Val), nil
}

func (a *msg2A) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	*a = msg2A{View: r.Varint(), Val: r.Str()}
	return r.Finish()
}

func (d msgDec) AppendBinary(buf []byte) ([]byte, error) {
	return wire.AppendString(buf, d.Val), nil
}

func (d *msgDec) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	*d = msgDec{Val: r.Str()}
	return r.Finish()
}
