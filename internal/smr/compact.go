package smr

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/consensus"
	"repro/internal/failure"
	"repro/internal/wire"
)

// Checkpointed log compaction. The slot space is a sliding window: logical
// slot numbers are unbounded and never reused (slot topics never alias),
// while live consensus instances exist only for [base, base+window). Each
// process checkpoints its derived state every Interval decided slots and
// announces the checkpoint frontier; the window extends past every
// announced frontier (so proposals never run out of slots), and the prefix
// below the LOWEST frontier announced by all processes is truncated — its
// instances stopped and unregistered, its decided values dropped, its
// memory freed. A peer that stops announcing is
// timed out (AckTimeout): truncation proceeds without it, and when the peer
// reappears still running slots below the live base, it is healed with a
// snapshot-install — the latest checkpoint plus the decided suffix — in
// O(state) instead of the O(history) decs replay.
//
// Safety: a process only proposes into slots beyond its original window
// after a window extension, and extensions are driven by checkpoint
// announcements, so any process that contributed the enabling announcement
// has already created those instances. A process that missed the
// announcements (crashed, partitioned away) simply cannot participate in
// the new slots until it heals; the install hands it the whole gated prefix
// at once, which is exactly the invariant the Sync barrier and the lease
// freshness argument rest on — an installed checkpoint covers every slot an
// append completion was gated on. Under purely unidirectional connectivity
// a process that cannot receive checkpoint announcements keeps its current
// window (the paper's pre-creation argument holds within it) and heals by
// install once connectivity returns.

// DefaultAckTimeout bounds how long truncation waits for a lagging peer's
// checkpoint announcement before treating it as failed.
const DefaultAckTimeout = 2 * time.Second

// CompactionOptions tunes checkpointed log compaction, which every log
// runs. The zero value applies the defaults. All processes of one log must
// agree on Interval.
type CompactionOptions struct {
	// Interval is the checkpoint cadence in slots: a process checkpoints
	// whenever its decided prefix has grown by Interval slots since its last
	// checkpoint. Defaults to DefaultCheckpointInterval of the window.
	Interval int64
	// AckTimeout bounds how long truncation waits for every peer's
	// checkpoint announcement. Peers still short of a frontier when the
	// timeout fires are treated as failed — the prefix is truncated anyway
	// and they heal via snapshot-install. Defaults to DefaultAckTimeout.
	AckTimeout time.Duration
	// Clock supplies the ack-timeout timer. Defaults to the real clock;
	// tests inject clock.NewFake to force the install fallback
	// deterministically.
	Clock clock.Clock
}

func (o CompactionOptions) withDefaults(window int) CompactionOptions {
	if o.Interval <= 0 {
		o.Interval = DefaultCheckpointInterval(window)
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = DefaultAckTimeout
	}
	o.Clock = clock.Or(o.Clock)
	return o
}

// DefaultCheckpointInterval is the checkpoint cadence of a window of the
// given size: a quarter of the window keeps several checkpoints' headroom
// ahead of truncation, floored at 16 so tiny windows do not checkpoint on
// every other decision, and capped at the window itself so a checkpoint
// always fires before the window can fill.
func DefaultCheckpointInterval(window int) int64 {
	iv := int64(window / 4)
	if iv < 16 {
		iv = 16
	}
	if iv > int64(window) {
		iv = int64(window)
	}
	return iv
}

// Snapshotter serializes and restores the derived state a layer above the
// log maintains through OnCommit. Both methods run on the node's event
// loop: Snapshot in the same loop step as the fold that reached frontier
// (so it sees exactly the decided prefix [0, frontier)), Restore when a
// snapshot-install replaces this process's state. NewKV installs the KV's
// own snapshotter; a plain Log without one checkpoints frontiers only, and
// its installs carry no state.
type Snapshotter interface {
	Snapshot(frontier int64) (string, error)
	Restore(state string, frontier int64) error
}

// CompactionMetrics counts compaction activity at one log endpoint.
type CompactionMetrics struct {
	// Checkpoints is the number of checkpoints this process produced.
	Checkpoints uint64
	// Truncations is the number of truncations that freed at least one slot.
	Truncations uint64
	// SlotsFreed is the total number of slots truncated and recycled.
	SlotsFreed uint64
	// InstallsSent and InstallsReceived count snapshot-install state
	// transfers to and from lagging peers.
	InstallsSent     uint64
	InstallsReceived uint64
	// PeakOccupancy is the high-water mark of live window usage: the widest
	// span from the live base to the highest locally used slot. Bounded
	// occupancy under sustained writes is the observable proof that
	// truncation keeps up.
	PeakOccupancy int64
}

// CompactionMetrics returns this endpoint's compaction counters. Safe from
// any goroutine.
func (l *Log) CompactionMetrics() CompactionMetrics {
	return CompactionMetrics{
		Checkpoints:      l.ckptCount.Load(),
		Truncations:      l.truncCount.Load(),
		SlotsFreed:       l.slotsFreed.Load(),
		InstallsSent:     l.installsSent.Load(),
		InstallsReceived: l.installsRecv.Load(),
		PeakOccupancy:    l.peakOcc.Load(),
	}
}

// CompactionMetrics returns the underlying log's compaction counters.
func (kv *KV) CompactionMetrics() CompactionMetrics { return kv.log.CompactionMetrics() }

// smrCkpt announces a process's checkpoint frontier: every slot below
// Frontier is folded into its latest checkpoint. It doubles as the
// truncation ack — the prefix below the lowest announced frontier is
// retired everywhere.
type smrCkpt struct {
	Frontier int64
}

// smrSnap installs a checkpoint at a lagging peer: the serialized state at
// Frontier plus the sender's decided suffix at and above it.
type smrSnap struct {
	Frontier int64
	State    string
	Decs     smrDecs
}

// makeSlot creates the consensus instance of one logical slot. Safe on the
// node loop (window extension creates instances mid-run).
func (l *Log) makeSlot(slot int64) *consensus.Consensus {
	return consensus.New(l.n, consensus.Options{
		Name:  fmt.Sprintf("%s/slot%d", l.name, slot),
		Reads: l.reads, Writes: l.writes, C: l.viewC,
		NoSync: true,
		// Runs on the node loop as soon as this process learns the slot's
		// decision.
		OnDecide: func(v string) { l.recordDecision(slot, v) },
		// Runs on the node loop the first time the slot leaves its virgin
		// state, before the triggering event is processed.
		OnActive: func() { l.onSlotActive(slot) },
	})
}

// slotAt returns the live consensus instance of a logical slot, or nil when
// the slot is below the live window (truncated) or at or beyond its end.
// Runs on the node loop.
func (l *Log) slotAt(slot int64) *consensus.Consensus {
	if slot < l.base || slot >= l.base+int64(len(l.slots)) {
		return nil
	}
	return l.slots[slot-l.base]
}

// windowGate returns the channel closed at the next window extension (or at
// Stop). Fetch it BEFORE observing the window: an extension between the
// observation and the wait then closes the fetched channel and the caller
// re-checks.
func (l *Log) windowGate() <-chan struct{} {
	l.windowMu.Lock()
	ch := l.windowCh
	l.windowMu.Unlock()
	return ch
}

// swapWindowGate releases window waiters and re-arms the gate. Runs on the
// node loop (extendWindow).
func (l *Log) swapWindowGate() {
	l.windowMu.Lock()
	if !l.windowClosed {
		close(l.windowCh)
		l.windowCh = make(chan struct{})
	}
	l.windowMu.Unlock()
}

// closeWindowGate permanently releases window waiters at Stop; they observe
// the stopped flag on re-check.
func (l *Log) closeWindowGate() {
	l.windowMu.Lock()
	if !l.windowClosed {
		l.windowClosed = true
		close(l.windowCh)
	}
	l.windowMu.Unlock()
}

// extendWindow grows the live window until it ends at to, creating the new
// slots' consensus instances and releasing proposal claims parked on the
// old end. New instances are virgin: the next stepView covers them with its
// tail range, exactly like startup. Runs on the node loop.
func (l *Log) extendWindow(to int64) {
	end := l.base + int64(len(l.slots))
	if to <= end {
		return
	}
	for s := end; s < to; s++ {
		l.slots = append(l.slots, l.makeSlot(s))
	}
	l.swapWindowGate()
}

// resolveSlot returns the consensus instance of a claimed slot, waiting out
// window extensions for a claim beyond the window's end. A claim below the
// live base — a snapshot-install truncated past it while the claim was in
// flight — fails with ErrCompacted: the claim was never proposed, so the
// command did not commit and may be retried.
func (l *Log) resolveSlot(ctx context.Context, slot int64) (*consensus.Consensus, error) {
	for {
		gate := l.windowGate()
		var (
			inst           *consensus.Consensus
			below, stopped bool
		)
		if err := l.n.CallCtx(ctx, func() {
			stopped = l.stopped
			inst = l.slotAt(slot)
			below = slot < l.base
		}); err != nil {
			return nil, err
		}
		switch {
		case stopped:
			return nil, ErrStopped
		case below:
			return nil, fmt.Errorf("slot %d: %w", slot, ErrCompacted)
		case inst != nil:
			return inst, nil
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// noteOccupancy records the live window usage high-water mark. Runs on the
// node loop.
func (l *Log) noteOccupancy() {
	hi := l.frontier + 1
	if l.claimNext > hi {
		hi = l.claimNext
	}
	if l.next > hi {
		hi = l.next
	}
	occ := hi - l.base
	for {
		cur := l.peakOcc.Load()
		if occ <= cur || l.peakOcc.CompareAndSwap(cur, occ) {
			return
		}
	}
}

// checkpoint serializes the derived state at the current decided prefix,
// announces the new frontier, extends the proposal window past it, and
// arms the ack-timeout fallback. Runs on the node loop in the same step as
// the fold that crossed the cadence, so the snapshot sees exactly the
// decided prefix [0, next).
func (l *Log) checkpoint() {
	f := l.next
	if f <= l.lastCkpt {
		return
	}
	var state string
	if l.snapshotter != nil {
		s, err := l.snapshotter.Snapshot(f)
		if err != nil {
			return // retried at the next cadence crossing
		}
		state = s
	}
	l.lastCkpt = f
	l.ckptState = state
	l.ckptCount.Add(1)
	if f > l.ackFrontier[l.n.ID()] {
		l.ackFrontier[l.n.ID()] = f
	}
	l.n.Broadcast(l.topicCkpt, smrCkpt{Frontier: f})
	l.extendWindow(f + l.window)
	l.maybeTruncate()
	l.scheduleAckTimeout(f)
}

// onCkpt records a peer's checkpoint announcement, extends the window past
// the announced frontier, and truncates whatever prefix every process has
// now retired. Runs on the node loop.
func (l *Log) onCkpt(from failure.Proc, m wire.Message) {
	var c smrCkpt
	if wire.Decode(m, &c) != nil || l.stopped || c.Frontier <= 0 {
		return
	}
	if c.Frontier > l.ackFrontier[from] {
		l.ackFrontier[from] = c.Frontier
	}
	l.extendWindow(c.Frontier + l.window)
	l.maybeTruncate()
}

// maybeTruncate truncates the prefix below the lowest checkpoint frontier
// announced by ALL processes (peers never heard from hold it at zero — the
// ack-timeout is what retires the prefix past them). Runs on the node loop.
func (l *Log) maybeTruncate() {
	t := l.lastCkpt
	for p := 0; p < l.n.ClusterSize(); p++ {
		if f := l.ackFrontier[failure.Proc(p)]; f < t {
			t = f
		}
	}
	l.truncateTo(t)
}

// scheduleAckTimeout arms the lag bound for the checkpoint at f: if peers
// are still short of f when the timeout fires, the prefix below f is
// truncated anyway — a dead replica cannot hold the window hostage, and a
// merely slow one heals via snapshot-install. Runs on the node loop.
func (l *Log) scheduleAckTimeout(f int64) {
	pending := false
	for p := 0; p < l.n.ClusterSize(); p++ {
		if l.ackFrontier[failure.Proc(p)] < f {
			pending = true
			break
		}
	}
	if !pending {
		return
	}
	l.compact.Clock.AfterFunc(l.compact.AckTimeout, func() {
		l.n.Do(func() {
			if l.stopped {
				return
			}
			l.truncateTo(f) // no-op when acks already retired past f
		})
	})
}

// truncateTo frees slots below t: stops and unregisters their consensus
// instances, drops their decided values and waiters, and advances the live
// base. t never exceeds this process's own checkpoint frontier or decided
// prefix, so everything freed is covered by the retained checkpoint. Runs
// on the node loop.
func (l *Log) truncateTo(t int64) {
	if t > l.lastCkpt {
		t = l.lastCkpt
	}
	if t > l.next {
		t = l.next // never truncate an undecided slot
	}
	if t <= l.base {
		return
	}
	n := t - l.base
	for i := int64(0); i < n; i++ {
		l.slots[i].Stop()
	}
	// Reallocate so the freed instances' backing array entries are released.
	l.slots = append(make([]*consensus.Consensus, 0, len(l.slots)-int(n)), l.slots[n:]...)
	for s := l.base; s < t; s++ {
		delete(l.decided, s)
		for _, ch := range l.waiters[s] {
			close(ch) // a Get parked on a truncated slot fails
		}
		delete(l.waiters, s)
	}
	l.base = t
	l.truncCount.Add(1)
	l.slotsFreed.Add(uint64(n))
}

// sendInstall ships the latest checkpoint plus the decided suffix to a peer
// still running slots below the live base. Throttled to one install per
// peer per view — a lagging peer re-announces its stale ranges every view
// until the install lands. Runs on the node loop.
func (l *Log) sendInstall(to failure.Proc, view int64) {
	if l.lastCkpt <= 0 || l.installView[to] >= view {
		return
	}
	l.installView[to] = view
	decs := make(smrDecs, 0, len(l.decided))
	for s, v := range l.decided {
		if s >= l.lastCkpt {
			decs = append(decs, smrDecEntry{Slot: s, Val: v})
		}
	}
	l.n.Send(to, l.topicSnap, smrSnap{Frontier: l.lastCkpt, State: l.ckptState, Decs: decs})
	l.installsSent.Add(1)
}

// onSnap adopts a snapshot-install: restore the checkpointed state, jump
// the decided prefix to its frontier, adopt the checkpoint as our own (we
// can answer later installs with it, and announcing the frontier unblocks
// peers' truncation), truncate our own retired prefix, and learn the
// decided suffix. Append completions gated on the skipped prefix are
// released — the installed checkpoint covers every slot they were gated
// on. Runs on the node loop.
func (l *Log) onSnap(from failure.Proc, m wire.Message) {
	var s smrSnap
	if wire.Decode(m, &s) != nil || l.stopped {
		return
	}
	if s.Frontier > l.next {
		if l.snapshotter != nil {
			if err := l.snapshotter.Restore(s.State, s.Frontier); err != nil {
				return // stay behind; the next view retries the install
			}
		}
		l.extendWindow(s.Frontier + l.window)
		l.next = s.Frontier
		if l.claimNext < l.next {
			l.claimNext = l.next
		}
		if s.Frontier-1 > l.frontier {
			l.frontier = s.Frontier - 1
		}
		l.lastCkpt = s.Frontier
		l.ckptState = s.State
		if s.Frontier > l.ackFrontier[l.n.ID()] {
			l.ackFrontier[l.n.ID()] = s.Frontier
		}
		l.truncateTo(s.Frontier)
		l.installsRecv.Add(1)
		l.n.Broadcast(l.topicCkpt, smrCkpt{Frontier: s.Frontier})
		// Fold any decided slots now contiguous with the installed frontier
		// and release the prefix waiters the jump covered.
		l.foldPrefix()
		l.noteOccupancy()
	}
	// The decided suffix rides along regardless: slots still running here
	// adopt their decisions without re-announcing.
	for _, d := range s.Decs {
		if d.Slot >= l.base+int64(len(l.slots)) {
			l.extendWindow(d.Slot + 1)
		}
		if inst := l.slotAt(d.Slot); inst != nil {
			inst.Learn(d.Val)
		}
	}
}
