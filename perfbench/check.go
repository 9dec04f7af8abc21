package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lincheck"
	"repro/internal/smr"
)

// kvHistory is the KV workloads' correctness bookkeeping. Each write stores
// the unique value "<key>.<id>", so a read's value names the key and the
// write it came from.
type kvHistory struct {
	mu    sync.Mutex
	keyOf []int32 // key of each write id
	state []keyState
	bad   []string // violations found while the run went on
}

// keyState is what the final value of one key may be.
type keyState struct {
	acked    bool
	slot     int64 // (slot, index) of the latest acknowledged write
	index    int
	val      string
	firstAck int64    // unix ns at which a write of the key was first seen acknowledged
	maybe    []string // failed writes, which may still have committed
}

func newKVHistory(keys int) *kvHistory {
	return &kvHistory{state: make([]keyState, keys)}
}

// newWrite returns the unique value of a new write of key.
func (h *kvHistory) newWrite(key int) string {
	h.mu.Lock()
	id := len(h.keyOf)
	h.keyOf = append(h.keyOf, int32(key))
	h.mu.Unlock()
	return strconv.Itoa(key) + "." + strconv.Itoa(id)
}

// ack books a write's completion.
func (h *kvHistory) ack(key int, val string, res smr.SetResult) {
	now := time.Now().UnixNano()
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.state[key]
	if res.Err != nil {
		s.maybe = append(s.maybe, val)
		return
	}
	if s.firstAck == 0 {
		s.firstAck = now
	}
	if !s.acked || res.Slot > s.slot || (res.Slot == s.slot && res.Index > s.index) {
		s.acked, s.slot, s.index, s.val = true, res.Slot, res.Index, val
	}
}

// read books a read of key invoked at invoke: a value must come from a
// write of that key, and a miss is wrong once a write of it was acknowledged
// before the read began.
func (h *kvHistory) read(key int, invoke time.Time, val string, found bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !found {
		if a := h.state[key].firstAck; a != 0 && a < invoke.UnixNano() {
			h.bad = append(h.bad, fmt.Sprintf("read of key %d missed a write acknowledged before it began", key))
		}
		return
	}
	k, id, ok := strings.Cut(val, ".")
	kn, err1 := strconv.Atoi(k)
	idn, err2 := strconv.Atoi(id)
	if !ok || err1 != nil || err2 != nil || kn != key || idn < 0 || idn >= len(h.keyOf) || int(h.keyOf[idn]) != key {
		h.bad = append(h.bad, fmt.Sprintf("read of key %d returned %q, which no write of the key stored", key, val))
	}
}

// readErr reports the first violation seen during the run.
func (h *kvHistory) readErr() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.bad) > 0 {
		return fmt.Errorf("%d read violations, first: %s", len(h.bad), h.bad[0])
	}
	return nil
}

// checkFinal checks what every process returned for key after quiescing:
// the same value everywhere, and that value is the latest acknowledged
// write's, or a failed write's that may have committed after it.
func (h *kvHistory) checkFinal(key int, vals []string, found []bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.state[key]
	for p := range vals {
		if found[p] != found[0] || vals[p] != vals[0] {
			return fmt.Errorf("key %d: process 0 holds (%q, %v) but process %d holds (%q, %v)", key, vals[0], found[0], p, vals[p], found[p])
		}
	}
	allowed := func(v string) bool {
		if s.acked && v == s.val {
			return true
		}
		for _, m := range s.maybe {
			if v == m {
				return true
			}
		}
		return false
	}
	switch {
	case !found[0] && s.acked:
		return fmt.Errorf("key %d: acknowledged write %q (slot %d, index %d) is lost", key, s.val, s.slot, s.index)
	case found[0] && !allowed(vals[0]):
		if s.acked {
			return fmt.Errorf("key %d: final value %q is not the latest acknowledged write %q (slot %d, index %d)", key, vals[0], s.val, s.slot, s.index)
		}
		return fmt.Errorf("key %d: final value %q was never written", key, vals[0])
	}
	return nil
}

// checkRegisters runs the paper's Appendix-B dependency-graph check on every
// register's full version-tagged history.
func checkRegisters(hist []*lincheck.History) error {
	for i, h := range hist {
		if err := lincheck.CheckVersioned(h.Ops()); err != nil {
			return fmt.Errorf("register %d: %w", i, err)
		}
	}
	return nil
}
