package main

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failure"
	"repro/internal/transport"
)

// Topic families, parsed from a payload's topic in the traced run only.
const (
	famConsensus = iota // <slot>/1b /2a /2b /dec
	famSMR              // /idle1b /decs /ckpt /snap
	famLease            // lease/.../ask /ack
	famQAF              // qaf/*
	famRegister         // /clock_req … /set_resp
	famOther
	numFamilies
)

var familyNames = [numFamilies]string{"consensus", "smr", "lease", "qaf", "register", "other"}

var familySuffixes = []struct {
	suffix string
	fam    int
}{
	{"/1b", famConsensus}, {"/2a", famConsensus}, {"/2b", famConsensus}, {"/dec", famConsensus},
	{"/idle1b", famSMR}, {"/decs", famSMR}, {"/ckpt", famSMR}, {"/snap", famSMR},
	{"/ask", famLease}, {"/ack", famLease},
	{"/clock_req", famRegister}, {"/clock_resp", famRegister}, {"/get_resp", famRegister},
	{"/set_req", famRegister}, {"/set_resp", famRegister},
}

// payloadTopic reads the topic out of a wire envelope's fixed prefix.
func payloadTopic(p []byte) string {
	const head = `{"t":"`
	if !bytes.HasPrefix(p, []byte(head)) {
		return ""
	}
	rest := p[len(head):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return string(rest[:i])
	}
	return ""
}

func topicFamily(topic string) int {
	if strings.HasPrefix(topic, "qaf/") {
		return famQAF
	}
	for _, s := range familySuffixes {
		if strings.HasSuffix(topic, s.suffix) {
			return s.fam
		}
	}
	return famOther
}

// netCounters are the transport-boundary counts of the traced run.
type netCounters struct {
	msgs, bytes        [numFamilies]int64 // message copies addressed, and their payload bytes
	propBytes          int64              // qaf/prop payload bytes
	deliveries         int64              // payloads handed to node handlers
	deliverNanos       int64              // summed send-to-handler time
	proposals, phase1  int64              // /2a broadcasts and /1b sends
	slots              int64              // distinct slots that saw a /2a
	dropped, delivered int64              // copies the simulated networks dropped and delivered
}

// add returns c + sign·o, field by field.
func (c netCounters) addSigned(o netCounters, sign int64) netCounters {
	for f := range c.msgs {
		c.msgs[f] += sign * o.msgs[f]
		c.bytes[f] += sign * o.bytes[f]
	}
	c.propBytes += sign * o.propBytes
	c.deliveries += sign * o.deliveries
	c.deliverNanos += sign * o.deliverNanos
	c.proposals += sign * o.proposals
	c.phase1 += sign * o.phase1
	c.slots += sign * o.slots
	c.dropped += sign * o.dropped
	c.delivered += sign * o.delivered
	return c
}

func (c netCounters) add(o netCounters) netCounters { return c.addSigned(o, 1) }
func (c netCounters) sub(o netCounters) netCounters { return c.addSigned(o, -1) }

// netTracer counts what every traced group's network carries and keeps a
// sample of payloads for the wire replay.
type netTracer struct {
	msgs, bytes                         [numFamilies]atomic.Int64
	propBytes, deliveries, deliverNanos atomic.Int64
	proposals, phase1, seq              atomic.Int64
	mu                                  sync.Mutex
	slots                               map[string]struct{} // network label + slot topic prefix
	sample                              [][]byte
	sampleBytes                         int
	nets                                []*tracedNet
}

// payloadSampleEvery and payloadSampleBytes bound the captured payloads:
// every 16th message, up to 16 MB of them, is enough for a steady replay
// mean.
const (
	payloadSampleEvery = 16
	payloadSampleBytes = 16 << 20
)

func newNetTracer() *netTracer { return &netTracer{slots: make(map[string]struct{})} }

func (t *netTracer) snapshot() netCounters {
	var c netCounters
	for f := range c.msgs {
		c.msgs[f] = t.msgs[f].Load()
		c.bytes[f] = t.bytes[f].Load()
	}
	c.propBytes = t.propBytes.Load()
	c.deliveries = t.deliveries.Load()
	c.deliverNanos = t.deliverNanos.Load()
	c.proposals = t.proposals.Load()
	c.phase1 = t.phase1.Load()
	t.mu.Lock()
	c.slots = int64(len(t.slots))
	t.mu.Unlock()
	for _, n := range t.nets {
		s := n.MemNetwork.Stats()
		c.dropped += s.Dropped
		c.delivered += s.Delivered
	}
	return c
}

// wrap wraps a group's network; each wrapped network gets its own label, so
// slots of different groups and deployments stay distinct.
func (t *netTracer) wrap(mem *transport.MemNetwork) *tracedNet {
	n := &tracedNet{MemNetwork: mem, t: t, group: strconv.Itoa(len(t.nets)) + ":"}
	t.nets = append(t.nets, n)
	return n
}

func (t *netTracer) sent(group string, payload []byte, copies int) {
	topic := payloadTopic(payload)
	fam := topicFamily(topic)
	size := int64(len(payload)) * int64(copies)
	t.msgs[fam].Add(int64(copies))
	t.bytes[fam].Add(size)
	switch {
	case topic == "qaf/prop":
		t.propBytes.Add(size)
	case strings.HasSuffix(topic, "/1b"):
		t.phase1.Add(1)
	case strings.HasSuffix(topic, "/2a"):
		t.proposals.Add(1)
		t.mu.Lock()
		t.slots[group+strings.TrimSuffix(topic, "/2a")] = struct{}{}
		t.mu.Unlock()
	}
	if t.seq.Add(1)%payloadSampleEvery == 0 {
		t.mu.Lock()
		if t.sampleBytes+len(payload) <= payloadSampleBytes {
			t.sample = append(t.sample, bytes.Clone(payload))
			t.sampleBytes += len(payload)
		}
		t.mu.Unlock()
	}
}

// tracedNet wraps one group's simulated network. It counts every payload
// sent by family and prefixes it with its send time, which the wrapped
// handler strips to time the delivery. Embedding keeps the network's fault
// injection, so core.Cluster.InjectPattern still works through it.
type tracedNet struct {
	*transport.MemNetwork
	t     *netTracer
	group string
}

func stamp(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(out, uint64(time.Now().UnixNano()))
	copy(out[8:], payload)
	return out
}

// Register implements transport.Network.
func (n *tracedNet) Register(p failure.Proc, h transport.Handler) {
	n.MemNetwork.Register(p, func(from failure.Proc, payload []byte) {
		sent := int64(binary.LittleEndian.Uint64(payload))
		n.t.deliveries.Add(1)
		n.t.deliverNanos.Add(time.Now().UnixNano() - sent)
		h(from, payload[8:])
	})
}

// Send implements transport.Network.
func (n *tracedNet) Send(from, to failure.Proc, payload []byte) {
	n.t.sent(n.group, payload, 1)
	n.MemNetwork.Send(from, to, stamp(payload))
}

// SendAll implements transport.Network.
func (n *tracedNet) SendAll(from failure.Proc, payload []byte) {
	n.t.sent(n.group, payload, n.N())
	n.MemNetwork.SendAll(from, stamp(payload))
}
