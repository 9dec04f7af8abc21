// Package wire defines the message format every protocol in this library
// shares: one envelope, binary bodies on the hot topics, JSON bodies on the
// cold ones, and the opaque values the replicated log decides (command
// batches and KV checkpoints).
//
// # Envelope
//
// A payload is the bytes
//
//	{"t":"<topic>"  0x00  <body>
//
// The topic is written between double quotes as is when it is printable
// ASCII without '"' or '\'; any other topic is written as a Go-quoted
// string (strconv.Quote), so every topic round-trips exactly. Neither form
// contains a 0x00 byte, so the first 0x00 ends the topic and the rest of
// the payload is the body (empty for a nil body). The fixed `{"t":"`
// prefix lets a reader that only needs the topic find it without this
// package. Unmarshal slices a payload into its topic and body; the body
// aliases the payload, which a broadcast shares across receivers, so
// decoders must never write to it.
//
// # Bodies
//
// A body whose type implements Appender is encoded in binary (the hot
// topics: consensus 1B/2A/2B/dec, smr idle1b/decs/ckpt/snap); Decode hands
// it to the target's encoding.BinaryUnmarshaler. Any other body is JSON
// (the cold topics: qaf, register, lease, lattice).
//
// Binary bodies are built from four primitives:
//
//   - uvarint and varint: encoding/binary's unsigned and zig-zag varints;
//   - bool: one byte, 0 or 1;
//   - string: a uvarint length, then that many bytes;
//   - list: a uvarint count, then that many elements.
//
// Reader decodes them. It checks every length and count against the input
// that remains before a caller allocates for it, so a corrupt or hostile
// prefix cannot make a decoder allocate more than the payload's size.
//
// # Decided values
//
// A batch (EncodeBatch) is "\x01b2", a uvarint count, then each command as
// a string. A checkpoint (EncodeCheckpoint) is "\x02c2", varint Frontier,
// varint MetaSlot, string Meta, then the State entries as a list of
// (string key, string value) pairs in ascending key order, so equal states
// encode byte-identically.
package wire

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// Message is a decoded envelope. Body aliases the payload it was sliced
// from and must not be written to.
type Message struct {
	Topic string
	Body  []byte
}

// Appender is implemented by bodies with a binary encoding: AppendBinary
// appends the encoding to b and returns the extended slice. (It is the
// method set of Go 1.24's encoding.BinaryAppender.)
type Appender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// envelopeHead opens every payload; a plain topic follows it directly.
const envelopeHead = `{"t":`

// encoder is the pooled scratch state of Marshal and the value encoders:
// one reusable output buffer, plus a json.Encoder bound to its own buffer
// for JSON bodies.
type encoder struct {
	b   []byte
	jsb bytes.Buffer
	js  *json.Encoder
}

var encPool = sync.Pool{
	New: func() any {
		e := &encoder{}
		e.js = json.NewEncoder(&e.jsb)
		return e
	},
}

// plainTopic reports whether the topic can be written between bare quotes
// (see the package comment). Every topic in this codebase qualifies; the
// quoted fallback keeps arbitrary strings correct.
func plainTopic(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// Marshal encodes a topic and body into a payload: binary for an Appender
// body, JSON otherwise, nothing for a nil body.
func Marshal(topic string, body any) ([]byte, error) {
	e := encPool.Get().(*encoder)
	defer encPool.Put(e)
	b := append(e.b[:0], envelopeHead...)
	if plainTopic(topic) {
		b = append(append(append(b, '"'), topic...), '"')
	} else {
		b = strconv.AppendQuote(b, topic)
	}
	b = append(b, 0)
	var err error
	switch v := body.(type) {
	case nil:
	case Appender:
		b, err = v.AppendBinary(b)
	default:
		e.jsb.Reset()
		if err = e.js.Encode(v); err == nil {
			js := e.jsb.Bytes()
			b = append(b, js[:len(js)-1]...) // drop the Encoder's trailing newline
		}
	}
	e.b = b[:0] // keep the grown buffer for the next message
	if err != nil {
		return nil, fmt.Errorf("marshal body for topic %q: %w", topic, err)
	}
	// The result must own its bytes: transports retain payloads past this
	// call (simulated delays, broadcast fan-out).
	return bytes.Clone(b), nil
}

// Unmarshal slices a payload into its envelope. It copies only the topic.
func Unmarshal(payload []byte) (Message, error) {
	if len(payload) < len(envelopeHead) || string(payload[:len(envelopeHead)]) != envelopeHead {
		return Message{}, errors.New("unmarshal envelope: missing topic prefix")
	}
	rest := payload[len(envelopeHead):]
	end := bytes.IndexByte(rest, 0)
	if end < 0 {
		return Message{}, errors.New("unmarshal envelope: unterminated topic")
	}
	topic, err := unquoteTopic(rest[:end])
	if err != nil {
		return Message{}, fmt.Errorf("unmarshal envelope: %w", err)
	}
	return Message{Topic: topic, Body: rest[end+1:]}, nil
}

// unquoteTopic reads the quoted topic of an envelope: a plain topic is the
// bytes between its quotes, anything else goes through strconv.Unquote.
func unquoteTopic(q []byte) (string, error) {
	if len(q) < 2 || q[0] != '"' || q[len(q)-1] != '"' {
		return "", fmt.Errorf("topic %q is not a quoted string", q)
	}
	if inner := q[1 : len(q)-1]; bytes.IndexByte(inner, '\\') < 0 && bytes.IndexByte(inner, '"') < 0 {
		return string(inner), nil
	}
	t, err := strconv.Unquote(string(q))
	if err != nil {
		return "", fmt.Errorf("topic %q: %w", q, err)
	}
	return t, nil
}

// Decode decodes a message body into v: through v's UnmarshalBinary when
// it implements encoding.BinaryUnmarshaler, as JSON otherwise.
func Decode(m Message, v any) error {
	var err error
	if u, ok := v.(encoding.BinaryUnmarshaler); ok {
		err = u.UnmarshalBinary(m.Body)
	} else {
		err = json.Unmarshal(m.Body, v)
	}
	if err != nil {
		return fmt.Errorf("decode body of topic %q: %w", m.Topic, err)
	}
	return nil
}

// AppendString appends s as a binary string: uvarint length, then bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader decodes binary primitives from a body ([]byte) or a decided value
// (string). The first failure sticks: later reads return zero values, and
// Finish reports it. Strings read from a string input are substrings of it
// and cost no copy; from a []byte input they are copies, so a decoded
// message never aliases the shared payload.
type Reader[T ~string | ~[]byte] struct {
	buf T
	err error
}

// NewReader returns a Reader over b.
func NewReader[T ~string | ~[]byte](b T) Reader[T] { return Reader[T]{buf: b} }

var (
	errShort    = errors.New("input too short")
	errOverflow = errors.New("varint overflows 64 bits")
)

func (r *Reader[T]) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = r.buf[:0]
}

// Byte reads one byte.
func (r *Reader[T]) Byte() byte {
	if r.err != nil || len(r.buf) == 0 {
		r.fail(errShort)
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// uvarint reads an unsigned varint (binary.AppendUvarint's encoding).
func (r *Reader[T]) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	var s uint
	for i := 0; i < len(r.buf); i++ {
		if i == binary.MaxVarintLen64 {
			r.fail(errOverflow)
			return 0
		}
		c := r.buf[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				r.fail(errOverflow)
				return 0
			}
			r.buf = r.buf[i+1:]
			return x | uint64(c)<<s
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	r.fail(errShort)
	return 0
}

// Varint reads a zig-zag signed varint (binary.AppendVarint's encoding).
func (r *Reader[T]) Varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Bool reads a one-byte bool; any byte other than 0 or 1 is an error.
func (r *Reader[T]) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errors.New("bool byte is neither 0 nor 1"))
	return false
}

// Str reads a binary string (see the Reader comment for when it copies).
func (r *Reader[T]) Str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail(fmt.Errorf("string length %d exceeds the %d bytes left", n, len(r.buf)))
		return ""
	}
	s := r.buf[:n]
	r.buf = r.buf[n:]
	return string(s)
}

// Count reads a list's element count. Every element takes at least
// minSize (>= 1) bytes, so a count the remaining input cannot hold is
// rejected here, before the caller allocates for it.
func (r *Reader[T]) Count(minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/minSize) {
		r.fail(fmt.Errorf("count %d exceeds what the %d bytes left can hold", n, len(r.buf)))
		return 0
	}
	return int(n)
}

// Finish reports the first failure, or an error when input remains unread.
func (r *Reader[T]) Finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return nil
}

// batchMagic prefixes a group-committed command batch travelling as one
// opaque consensus value (see smr's group commit). The replicated log
// rejects commands opening with byte 0x01, so a batch is always
// distinguishable from a slot holding a single command.
const batchMagic = "\x01b2"

// EncodeBatch packs an ordered command batch into one opaque value (see
// the package comment for the format).
func EncodeBatch(cmds []string) (string, error) {
	for i, c := range cmds {
		if len(c) > 0 && c[0] == batchMagic[0] {
			return "", fmt.Errorf("batch command %d starts with the reserved batch-marker byte 0x01", i)
		}
	}
	e := encPool.Get().(*encoder)
	defer encPool.Put(e)
	b := binary.AppendUvarint(append(e.b[:0], batchMagic...), uint64(len(cmds)))
	for _, c := range cmds {
		b = AppendString(b, c)
	}
	e.b = b[:0]
	return string(b), nil
}

// IsBatch reports whether a decided value is a batch produced by
// EncodeBatch rather than a single command.
func IsBatch(v string) bool {
	return len(v) >= len(batchMagic) && v[:len(batchMagic)] == batchMagic
}

// DecodeBatch unpacks a batch value into its ordered commands. The
// commands are substrings of v: decoding copies no command bytes.
func DecodeBatch(v string) ([]string, error) {
	if !IsBatch(v) {
		return nil, errors.New("not a batch value (missing marker)")
	}
	r := NewReader(v[len(batchMagic):])
	cmds := make([]string, r.Count(1))
	for i := range cmds {
		cmds[i] = r.Str()
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decode command batch: %w", err)
	}
	return cmds, nil
}

// checkpointMagic prefixes a serialized KV checkpoint travelling as one
// opaque string (see smr's log compaction).
const checkpointMagic = "\x02c2"

// Checkpoint is the serialized applied state of a replicated KV at a log
// frontier: every slot below Frontier is folded into State. MetaSlot/Meta
// carry the latest meta entry at or below the frontier (lease grants travel
// as meta entries; replaying the newest one on restore re-establishes the
// writer gate an installed process would otherwise miss).
type Checkpoint struct {
	Frontier int64
	State    map[string]string
	MetaSlot int64
	Meta     string
}

// EncodeCheckpoint packs a checkpoint into one opaque string (see the
// package comment for the format).
func EncodeCheckpoint(c Checkpoint) (string, error) {
	if c.Frontier < 0 {
		return "", fmt.Errorf("checkpoint frontier %d is negative", c.Frontier)
	}
	keys := make([]string, 0, len(c.State))
	for k := range c.State {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e := encPool.Get().(*encoder)
	defer encPool.Put(e)
	b := binary.AppendVarint(append(e.b[:0], checkpointMagic...), c.Frontier)
	b = AppendString(binary.AppendVarint(b, c.MetaSlot), c.Meta)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = AppendString(AppendString(b, k), c.State[k])
	}
	e.b = b[:0]
	return string(b), nil
}

// IsCheckpoint reports whether a value is a checkpoint produced by
// EncodeCheckpoint.
func IsCheckpoint(v string) bool {
	return len(v) >= len(checkpointMagic) && v[:len(checkpointMagic)] == checkpointMagic
}

// DecodeCheckpoint unpacks a checkpoint value. State is nil for an empty
// state; its keys and values are substrings of v.
func DecodeCheckpoint(v string) (Checkpoint, error) {
	if !IsCheckpoint(v) {
		return Checkpoint{}, errors.New("not a checkpoint value (missing marker)")
	}
	r := NewReader(v[len(checkpointMagic):])
	c := Checkpoint{Frontier: r.Varint(), MetaSlot: r.Varint(), Meta: r.Str()}
	if c.Frontier < 0 {
		return Checkpoint{}, fmt.Errorf("decode checkpoint: frontier %d is negative", c.Frontier)
	}
	if n := r.Count(2); n > 0 {
		c.State = make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := r.Str()
			c.State[k] = r.Str()
		}
	}
	if err := r.Finish(); err != nil {
		return Checkpoint{}, fmt.Errorf("decode checkpoint: %w", err)
	}
	return c, nil
}
