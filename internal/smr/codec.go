package smr

import (
	"encoding/binary"
	"errors"
	"strings"

	"repro/internal/wire"
)

// Binary bodies and log records (see package wire for the primitives).
// Every field is written in declaration order:
//
//	smrIdle1B: varint View, list of (varint lo, varint hi) Ranges
//	smrDecs:   list of (varint Slot, string Val)
//	smrCkpt:   varint Frontier
//	smrSnap:   varint Frontier, string State, smrDecs Decs
//	kvCommand: byte kvRecord, string ID, string Key, string Val, string Meta

func (b smrIdle1B) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(binary.AppendVarint(buf, b.View), uint64(len(b.Ranges)))
	for _, r := range b.Ranges {
		buf = binary.AppendVarint(binary.AppendVarint(buf, r[0]), r[1])
	}
	return buf, nil
}

func (b *smrIdle1B) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	*b = smrIdle1B{View: r.Varint()}
	if n := r.Count(2); n > 0 {
		b.Ranges = make([][2]int64, n)
		for i := range b.Ranges {
			b.Ranges[i] = [2]int64{r.Varint(), r.Varint()}
		}
	}
	return r.Finish()
}

// smrDecs is the body of the decs topic: decided slots for a process still
// running them.
type smrDecs []smrDecEntry

func (d smrDecs) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(d)))
	for _, e := range d {
		buf = wire.AppendString(binary.AppendVarint(buf, e.Slot), e.Val)
	}
	return buf, nil
}

func (d *smrDecs) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	*d = readDecs(&r)
	return r.Finish()
}

func readDecs(r *wire.Reader[[]byte]) smrDecs {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	d := make(smrDecs, n)
	for i := range d {
		d[i] = smrDecEntry{Slot: r.Varint(), Val: r.Str()}
	}
	return d
}

func (c smrCkpt) AppendBinary(buf []byte) ([]byte, error) {
	return binary.AppendVarint(buf, c.Frontier), nil
}

func (c *smrCkpt) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	*c = smrCkpt{Frontier: r.Varint()}
	return r.Finish()
}

func (s smrSnap) AppendBinary(buf []byte) ([]byte, error) {
	buf = wire.AppendString(binary.AppendVarint(buf, s.Frontier), s.State)
	return s.Decs.AppendBinary(buf)
}

func (s *smrSnap) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	*s = smrSnap{Frontier: r.Varint(), State: r.Str()}
	s.Decs = readDecs(&r)
	return r.Finish()
}

// kvRecord opens every KV command record. It is not the batch marker
// 0x01, so a slot holding one command stays distinguishable from a batch.
const kvRecord = 0x03

// encode builds the command's log record in one allocation.
func (c kvCommand) encode() string {
	fields := [...]string{c.ID, c.Key, c.Val, c.Meta}
	var n [binary.MaxVarintLen64]byte
	size := 1
	for _, f := range fields {
		size += len(binary.AppendUvarint(n[:0], uint64(len(f)))) + len(f)
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteByte(kvRecord)
	for _, f := range fields {
		sb.Write(binary.AppendUvarint(n[:0], uint64(len(f))))
		sb.WriteString(f)
	}
	return sb.String()
}

// decodeKVCommand parses a log record. The fields are substrings of rec.
func decodeKVCommand(rec string) (kvCommand, error) {
	r := wire.NewReader(rec)
	if r.Byte() != kvRecord {
		return kvCommand{}, errors.New("not a kv command record")
	}
	c := kvCommand{ID: r.Str(), Key: r.Str(), Val: r.Str(), Meta: r.Str()}
	return c, r.Finish()
}
