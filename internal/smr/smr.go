// Package smr implements state machine replication on top of the paper's
// generalized-quorum-system consensus: a replicated log in which each slot
// is decided by one Figure-6 consensus instance. It is the standard
// application layer above single-shot consensus and demonstrates that the
// paper's weak-connectivity bound carries to full replicated services:
// commands submitted at U_f members commit despite asymmetric channel
// failures.
//
// Slot instances are created for the whole slot window upfront, at every
// process, when the log endpoint starts. This is not an implementation
// convenience but a requirement of the paper's model: under a pattern like
// Figure 1's f1, a read-quorum member (process c) may have NO incoming
// connectivity at all, so it can never learn about lazily created protocol
// instances — it can only participate in protocols it starts
// spontaneously. The paper's algorithms assume every correct process runs
// the algorithm from startup; the pre-created window realizes exactly that
// per slot.
//
// Every append goes through one path, the group-commit batcher (batch.go):
// commands arriving within a short window coalesce into one ordered batch
// that a single consensus instance decides as one opaque value, and up to
// a configurable number of batches pipeline across consecutive slots. The
// zero Options.Batch is the degenerate batch of one command per slot, so a
// slot's decided value is the command itself. Consensus value semantics
// are untouched — a batch is one value — so the paper's safety argument
// carries over unchanged.
//
// The log has one shape, a sliding window over unbounded logical slots
// (compact.go): each process checkpoints its derived state every
// Options.Compaction.Interval decided slots, the window slides forward once
// every live peer has announced a covering checkpoint (a lagging or dead
// peer is timed out and later healed by a snapshot-install carrying
// checkpoint plus decided suffix), and freed slots are recycled, so
// appends never run out of slots. Slots below the live base are gone: Get
// returns ErrCompacted for them and DecidedPrefix covers only the live
// window [base, next). A plain Log has no Snapshotter, so its checkpoints
// carry frontiers only; the history it truncated is not kept anywhere.
// Leader leases (internal/lease) serve leased local reads off the KV's
// applied state.
package smr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/viewsync"
	"repro/internal/wire"
)

// ErrStopped is returned after the log has been stopped.
var ErrStopped = errors.New("replicated log stopped")

// ErrCompacted is returned for slots below the live window: their decisions
// were folded into a checkpoint and truncated.
var ErrCompacted = errors.New("slot compacted (folded into a checkpoint)")

// DefaultSlots is the default window size: the number of live consensus
// instances at every process (see the package comment). The window slides
// as checkpoints retire the decided prefix, so it bounds memory and the
// appends in flight, not the log's length. Idle slots batch their view
// participation into one message per process per view, so window size
// costs memory, not steady-state traffic.
const DefaultSlots = 128

// Options configures a log endpoint.
type Options struct {
	// Name scopes wire topics. Defaults to "smr".
	Name string
	// Slots is the window size (number of live consensus instances).
	// Defaults to DefaultSlots. All processes of one log must agree on it.
	Slots int
	// Reads and Writes are the GQS quorum families.
	Reads, Writes []graph.BitSet
	// ViewC is the per-slot consensus view-duration constant.
	ViewC time.Duration
	// Batch configures group-commit batching and pipelined appends. The
	// zero value proposes one command per slot, DefaultPipeline slots in
	// flight.
	Batch BatchOptions
	// OnCommit, when set, runs on the node loop for every slot the decided
	// prefix advances over — in slot order, exactly once per slot, with the
	// slot's raw decided value (an opaque group-commit batch when the slot
	// carries more than one command; expand with SlotCommands). Layers
	// keeping derived state over the log (the KV's applied map) fold slots
	// in here instead of replaying the prefix per read. It fires before the slot's prefix
	// waiters are released, so an append completion observes every
	// OnCommit effect up to its slot. A snapshot-install replaces the
	// skipped slots' OnCommit calls with one Snapshotter Restore.
	OnCommit func(slot int64, v string)
	// Compaction tunes checkpointed log compaction: the slot window slides
	// forward as checkpoints retire the decided prefix (see compact.go).
	// The zero value applies the defaults. All processes of one log must
	// agree on it.
	Compaction CompactionOptions
	// Snapshotter serializes and restores the derived state OnCommit folds,
	// for checkpoints and snapshot-installs. Owned by the KV's apply loop
	// under NewKV and must be left unset there; a plain Log without one
	// checkpoints frontiers only (installs carry no state).
	Snapshotter Snapshotter
}

// smrIdle1B batches the default 1B messages of every idle slot at one
// process for one view entry into a single message to the view's leader.
// Ranges are [lo, hi) slot intervals; idle slots are overwhelmingly the
// contiguous unused tail of the log, so the encoding is a handful of bytes
// regardless of capacity.
type smrIdle1B struct {
	View   int64
	Ranges [][2]int64
}

// smrDecEntry carries one decided slot's value to a process still running
// the slot (partition heal, late catch-up).
type smrDecEntry struct {
	Slot int64
	Val  string
}

// Log is one process's endpoint of the replicated command log.
type Log struct {
	n *node.Node
	// slots holds the live window's consensus instances: slots[i] is
	// logical slot base+i. Extension appends and truncation drops from the
	// front. Loop-confined after New (Stop reads it only after the loop has
	// observed stopped).
	slots []*consensus.Consensus
	sync  *viewsync.Synchronizer

	// Immutable after New: consensus parameters for window extension's
	// instance creation, and the configured window size.
	name   string
	reads  []graph.BitSet
	writes []graph.BitSet
	viewC  time.Duration
	window int64

	topicIdle1B string
	topicDecs   string
	topicCkpt   string
	topicSnap   string

	// batch is the group-commit append buffer every append goes through.
	batch *batcher

	// compact is Options.Compaction with defaults applied. snapshotter may
	// be nil (see Options.Snapshotter).
	compact     CompactionOptions
	snapshotter Snapshotter

	// windowCh gates proposal claims beyond the live window: extension
	// closes and re-arms it (swapWindowGate), Stop closes it for good.
	windowMu     sync.Mutex
	windowCh     chan struct{}
	windowClosed bool

	// Compaction counters (CompactionMetrics); atomics, read from any
	// goroutine.
	ckptCount    atomic.Uint64
	truncCount   atomic.Uint64
	slotsFreed   atomic.Uint64
	installsSent atomic.Uint64
	installsRecv atomic.Uint64
	peakOcc      atomic.Int64

	// onCommit is Options.OnCommit (may be nil). Invoked on the node loop
	// as the decided prefix advances.
	onCommit func(slot int64, v string)

	// gate, when installed (SetGate), is consulted by every append
	// completion after the local decided prefix covers the appended slot:
	// the append does not return until the gate does. The lease manager
	// uses it to hold write completions until the leaseholder has applied
	// the write, the invariant leased local reads rest on.
	gate atomic.Pointer[func(slot int64)]

	// Loop-confined state.
	decided map[int64]string
	next    int64 // lowest slot this process has not observed decided
	// claimNext is the next slot a pipelined batch proposal claims; it never
	// trails next and never hands two local batches the same slot.
	claimNext int64
	waiters   map[int64][]chan string
	// prefixWaiters holds batch completions gated on the decided prefix
	// covering their slot (awaitPrefix): key k fires when next exceeds k.
	prefixWaiters map[int64][]chan struct{}
	// view is the current view as driven by the shared synchronizer.
	view int64
	// frontier is the highest slot with any local activity (-1 when none):
	// a local proposal, a direct protocol message, or a decision. Slots
	// beyond it are virgin consensus instances whose per-view contribution
	// is exactly the default 1B, so stepView covers them with one range in
	// O(1) instead of stepping each instance — idle log capacity costs no
	// per-view work at all.
	frontier int64
	// idle1Bs holds the latest batched default-1B ranges per peer. Ranges
	// covering slots beyond the frontier are not materialized into the
	// per-slot instances eagerly (that would be O(capacity) per view, per
	// peer); they are replayed on demand the moment a covered slot first
	// activates (see onSlotActive).
	idle1Bs map[failure.Proc]smrIdle1B
	// Window state, loop-confined: base is the lowest live slot,
	// lastCkpt/ckptState the frontier and serialized payload of this
	// process's latest checkpoint, ackFrontier the highest checkpoint
	// frontier each process (self included) has announced, and installView
	// the last view a snapshot-install was sent to each peer (throttle).
	base        int64
	lastCkpt    int64
	ckptState   string
	ackFrontier map[failure.Proc]int64
	installView map[failure.Proc]int64
	stopped     bool
}

// New installs a replicated log endpoint on the node, starting one consensus
// instance per slot (see the package comment for why instances must exist
// from startup at every process).
//
// All slots share one view synchronizer, and a slot's per-view 1B message is
// gated on slot activity: slots with a local proposal or an accepted value
// send their own 1B, idle slots are batched into a single default-1B message
// per view for the whole log, and decided slots are silent (the decision was
// announced; stragglers asking about the slot get it as a reply). The seed
// emitted one message per slot per view entry — 128 by default — even on a
// completely idle log.
func New(n *node.Node, opts Options) *Log {
	if opts.Name == "" {
		opts.Name = "smr"
	}
	if opts.Slots <= 0 {
		opts.Slots = DefaultSlots
	}
	if opts.ViewC <= 0 {
		opts.ViewC = 25 * time.Millisecond
	}
	l := &Log{
		n:             n,
		name:          opts.Name,
		reads:         opts.Reads,
		writes:        opts.Writes,
		viewC:         opts.ViewC,
		window:        int64(opts.Slots),
		onCommit:      opts.OnCommit,
		compact:       opts.Compaction.withDefaults(opts.Slots),
		snapshotter:   opts.Snapshotter,
		windowCh:      make(chan struct{}),
		decided:       make(map[int64]string),
		waiters:       make(map[int64][]chan string),
		prefixWaiters: make(map[int64][]chan struct{}),
		frontier:      -1,
		idle1Bs:       make(map[failure.Proc]smrIdle1B),
		ackFrontier:   make(map[failure.Proc]int64),
		installView:   make(map[failure.Proc]int64),
		topicIdle1B:   opts.Name + "/idle1b",
		topicDecs:     opts.Name + "/decs",
		topicCkpt:     opts.Name + "/ckpt",
		topicSnap:     opts.Name + "/snap",
	}
	l.batch = newBatcher(l, opts.Batch)
	for s := 0; s < opts.Slots; s++ {
		l.slots = append(l.slots, l.makeSlot(int64(s)))
	}
	n.Handle(l.topicIdle1B, l.onIdle1B)
	n.Handle(l.topicDecs, l.onDecs)
	n.Handle(l.topicCkpt, l.onCkpt)
	n.Handle(l.topicSnap, l.onSnap)
	l.sync = viewsync.New(opts.ViewC, func(v viewsync.View) {
		// Hop onto the event loop; the synchronizer runs its own goroutine.
		n.Do(func() { l.stepView(int64(v)) })
	})
	l.sync.Start()
	return l
}

// stepView enters view v at every active slot (the prefix up to the
// frontier), batching the default 1Bs of idle slots — stepped ones with
// nothing to say, plus the whole virgin tail as one O(1) range — into one
// message to the view's leader. Runs on the node loop.
func (l *Log) stepView(v int64) {
	if l.stopped {
		return
	}
	l.view = v
	var ranges [][2]int64
	addIdle := func(lo, hi int64) {
		if k := len(ranges); k > 0 && ranges[k-1][1] == lo {
			ranges[k-1][1] = hi
		} else {
			ranges = append(ranges, [2]int64{lo, hi})
		}
	}
	scan := l.frontier // activation during the scan must not extend it
	for s := l.base; s <= scan; s++ {
		if l.slotAt(s).StepView(v) {
			addIdle(s, s+1)
		}
	}
	if tail, end := scan+1, l.base+int64(len(l.slots)); tail < end {
		addIdle(tail, end)
	}
	if len(ranges) == 0 {
		return
	}
	leader := failure.Proc(viewsync.Leader(viewsync.View(v), l.n.ClusterSize()))
	l.n.Send(leader, l.topicIdle1B, smrIdle1B{View: v, Ranges: ranges})
}

// onIdle1B records a peer's batched default 1Bs (leader side). Slots this
// process already knows decided are answered with their decisions — that is
// how a healed or late process learns the log's history from one message
// per view. Defaults for slots active here are materialized into their
// instances immediately; the rest of the ranges stay in idle1Bs and replay
// on demand when a covered slot activates (onSlotActive), so the cost per
// view is O(active slots), not O(capacity). Runs on the node loop.
func (l *Log) onIdle1B(from failure.Proc, m wire.Message) {
	var b smrIdle1B
	if wire.Decode(m, &b) != nil || l.stopped {
		return
	}
	// Keep the newest view's ranges per peer: same-view messages merge (a
	// multi-part message must not clobber the ranges already stored, which
	// later slot activations replay to assemble quorums), an older view's
	// reordered straggler never regresses the entry, and a newer view
	// replaces outright. Only the INCOMING ranges are materialized below;
	// re-walking the merged set would replay every earlier range per
	// message.
	incoming := b.Ranges
	if prev, ok := l.idle1Bs[from]; ok {
		switch {
		case prev.View == b.View:
			merged := make([][2]int64, 0, len(prev.Ranges)+len(b.Ranges))
			merged = append(merged, prev.Ranges...)
			merged = append(merged, b.Ranges...)
			b.Ranges = merged
			l.idle1Bs[from] = b
		case prev.View < b.View:
			l.idle1Bs[from] = b
		}
	} else {
		l.idle1Bs[from] = b
	}
	var decs smrDecs
	behind := false
	for _, r := range incoming {
		lo, hi := r[0], r[1]
		if lo < l.base {
			behind = true // slots below the live base: truncated here
			lo = l.base
		}
		if hi > l.frontier+1 {
			hi = l.frontier + 1 // virgin tail: materialized on activation
		}
		for s := lo; s < hi; s++ {
			if v, ok := l.decided[s]; ok {
				decs = append(decs, smrDecEntry{Slot: s, Val: v})
			} else if inst := l.slotAt(s); inst != nil {
				inst.Default1B(from, b.View)
			}
		}
	}
	if behind {
		// The peer is still running slots whose decided values were
		// truncated here, so the O(history) decs catch-up below cannot
		// cover them — heal it with a snapshot-install instead.
		l.sendInstall(from, b.View)
	}
	if len(decs) > 0 {
		l.n.Send(from, l.topicDecs, decs)
	}
}

// onSlotActive runs when a slot's instance first leaves its virgin state
// (consensus.Options.OnActive), before the triggering event is processed:
// it extends the frontier, fast-forwards the instance into the current view
// (its default 1B for this view was already claimed by stepView's range),
// and replays the stored idle ranges of every peer that cover the slot so
// the instance sees the same 1B set it would have under eager delivery.
// Runs on the node loop.
func (l *Log) onSlotActive(slot int64) {
	if l.stopped {
		return
	}
	inst := l.slotAt(slot)
	if inst == nil {
		return // truncated while the activation was in flight
	}
	if slot > l.frontier {
		l.frontier = slot
	}
	if l.view > 0 {
		// Fast-forward a virgin instance into the current view. Its default
		// 1B for this view needs no fresh send: stepView's tail range
		// [frontier+1, capacity) already covered every then-virgin slot at
		// view entry, and an instance activated by a local proposal sends
		// its own Mine-carrying 1B from StepView.
		inst.StepView(l.view)
	}
	for from, b := range l.idle1Bs {
		for _, r := range b.Ranges {
			if slot >= r[0] && slot < r[1] {
				if v, ok := l.decided[slot]; ok {
					l.n.Send(from, l.topicDecs, smrDecs{{Slot: slot, Val: v}})
				} else {
					inst.Default1B(from, b.View)
				}
				break
			}
		}
	}
}

// onDecs adopts decided values for slots this process is still running.
// Runs on the node loop.
func (l *Log) onDecs(from failure.Proc, m wire.Message) {
	var decs smrDecs
	if wire.Decode(m, &decs) != nil || l.stopped {
		return
	}
	for _, d := range decs {
		if d.Slot < l.base {
			continue // already folded into a checkpoint here
		}
		if d.Slot >= l.base+int64(len(l.slots)) {
			// Evidence of decisions beyond our window: a peer extended on a
			// checkpoint announcement we missed. Creating instances is
			// always safe; extend to adopt the decision.
			l.extendWindow(d.Slot + 1)
		}
		if inst := l.slotAt(d.Slot); inst != nil {
			inst.Learn(d.Val)
		}
	}
}

// Capacity returns the configured window size: the number of live slots,
// which slide forward as checkpoints retire the decided prefix. It bounds
// memory, not the number of appends.
func (l *Log) Capacity() int { return int(l.window) }

// recordDecision stores a decision and wakes waiters. Runs on the loop.
func (l *Log) recordDecision(slot int64, v string) {
	if slot < l.base {
		return // below the live window: already covered by a checkpoint
	}
	if _, ok := l.decided[slot]; ok {
		return
	}
	if slot > l.frontier {
		l.frontier = slot
	}
	l.decided[slot] = v
	l.foldPrefix()
	for _, ch := range l.waiters[slot] {
		ch <- v
	}
	delete(l.waiters, slot)
	if l.next >= l.lastCkpt+l.compact.Interval {
		l.checkpoint()
	}
	l.noteOccupancy()
}

// foldPrefix advances next over contiguous decided slots, folding each into
// derived state, then releases the prefix waiters now covered. The fold
// runs BEFORE the waiters are released: an append completion gated on the
// prefix must observe every commit effect up to its slot. Runs on the loop.
func (l *Log) foldPrefix() {
	for {
		v, ok := l.decided[l.next]
		if !ok {
			break
		}
		if l.onCommit != nil {
			l.onCommit(l.next, v)
		}
		l.next++
	}
	for k, ws := range l.prefixWaiters {
		if k < l.next {
			for _, ch := range ws {
				close(ch)
			}
			delete(l.prefixWaiters, k)
		}
	}
}

// awaitPrefix blocks until this process's decided prefix covers slot (next >
// slot) or the log stops. Batch completions gate on it so a returned Append
// implies a locally decided prefix through its slot — the invariant the KV
// Sync barrier's freshness argument rests on (see batch.go).
func (l *Log) awaitPrefix(slot int64) {
	ch := make(chan struct{})
	wait := false
	l.n.Call(func() {
		if l.stopped || l.next > slot {
			return
		}
		wait = true
		l.prefixWaiters[slot] = append(l.prefixWaiters[slot], ch)
	})
	if wait {
		<-ch
	}
}

// SetGate installs (or, with nil, removes) the append-completion gate:
// after an append's local decided prefix covers its slot, the gate runs
// with the slot and the append returns only when the gate does. At most
// one gate is supported; the lease manager installs one to hold write
// completions until the leaseholder has applied the written slot (see
// internal/lease for the protocol and why this keeps leased local reads
// linearizable). The gate must not call back into the log's node loop
// synchronously — it runs on append completion goroutines.
func (l *Log) SetGate(gate func(slot int64)) {
	if gate == nil {
		l.gate.Store(nil)
		return
	}
	l.gate.Store(&gate)
}

// WaitPrefix blocks until this process's decided prefix covers slot
// (DecidedPrefix would include it), the context is done, or the log stops.
// It is the exported form of the completion invariant's wait: the lease
// manager's holder side answers "have you applied slot s yet?" with it.
func (l *Log) WaitPrefix(ctx context.Context, slot int64) error {
	ch := make(chan struct{})
	wait, stopped := false, false
	if err := l.n.CallCtx(ctx, func() {
		if l.stopped {
			stopped = true
			return
		}
		if l.next > slot {
			return
		}
		wait = true
		l.prefixWaiters[slot] = append(l.prefixWaiters[slot], ch)
	}); err != nil {
		// The registration may still run later; recordDecision or Stop
		// closes the abandoned channel, which no one observes.
		return err
	}
	if stopped {
		return ErrStopped
	}
	if !wait {
		return nil
	}
	select {
	case <-ch:
		// Both a prefix advance and Stop close the channel; only the
		// former satisfies the wait.
		covered := false
		if err := l.n.CallCtx(ctx, func() { covered = l.next > slot }); err != nil {
			return err
		}
		if !covered {
			return ErrStopped
		}
		return nil
	case <-ctx.Done():
		// The registered waiter stays behind; recordDecision or Stop
		// closes its channel eventually, which no one observes.
		return ctx.Err()
	}
}

// Append commits cmd to the log and returns the slot it occupies. Commands
// must be unique (callers tag them with client ids); duplicates would be
// committed twice. The command joins the batcher's next group commit, so
// the returned slot may be shared with other commands (use AppendAsync for
// the index within the batch); with the zero Options.Batch it is alone in
// its slot.
//
// Canceling ctx abandons the wait. A command still buffered (never cut
// into a batch) is withdrawn and cannot commit, so a caller may safely
// retry it; a command whose batch was already proposed may still commit
// afterwards, so retrying it risks a double commit.
func (l *Log) Append(ctx context.Context, cmd string) (int64, error) {
	if err := checkCmd(cmd); err != nil {
		return 0, err
	}
	ch := l.batch.enqueue(cmd)
	select {
	case res := <-ch:
		return res.Slot, res.Err
	case <-ctx.Done():
		l.batch.remove(ch)
		return 0, ctx.Err()
	}
}

// checkCmd validates a command for Append: non-empty, and not opening with
// the reserved batch-marker byte (a command that parsed as a batch would
// corrupt DecidedPrefix's flattening).
func checkCmd(cmd string) error {
	if cmd == "" {
		return errors.New("empty command")
	}
	if cmd[0] == 0x01 {
		return errors.New("command starts with the reserved batch-marker byte 0x01")
	}
	return nil
}

// AppendAsync submits cmd and returns a channel that receives its
// completion: the slot the command's batch occupies, its index within the
// batch, and any error. The channel is buffered; abandoning it leaks
// nothing. ctx does NOT withdraw the command — the async surface trades
// cancellation for a zero-overhead completion channel (no per-op
// goroutine), so a submitted command will be proposed and may commit even
// if the caller stops listening; a caller that needs withdraw-on-cancel for
// safe retries uses the synchronous Append.
func (l *Log) AppendAsync(ctx context.Context, cmd string) <-chan AppendResult {
	if err := checkCmd(cmd); err != nil {
		done := make(chan AppendResult, 1)
		done <- AppendResult{Err: err}
		return done
	}
	return l.batch.enqueue(cmd)
}

// Get returns the decision of a slot, blocking until it is decided at this
// process. A slot holding one command decides the command itself; a group
// commit of several decides an opaque batch value that SlotCommands
// expands (DecidedPrefix already flattens the whole prefix back into the
// per-command sequence). Slots below the live base return ErrCompacted.
func (l *Log) Get(ctx context.Context, slot int64) (string, error) {
	if slot < 0 {
		return "", fmt.Errorf("slot %d out of range", slot)
	}
	ch := make(chan string, 1)
	registered := false
	var rangeErr error
	if err := l.n.CallCtx(ctx, func() {
		if l.stopped {
			return
		}
		registered = true
		switch end := l.base + int64(len(l.slots)); {
		case slot < l.base:
			rangeErr = fmt.Errorf("slot %d: %w", slot, ErrCompacted)
			return
		case slot >= end:
			rangeErr = fmt.Errorf("slot %d out of range [%d,%d)", slot, l.base, end)
			return
		}
		if v, ok := l.decided[slot]; ok {
			ch <- v
			return
		}
		l.waiters[slot] = append(l.waiters[slot], ch)
	}); err != nil {
		// The registration may still run later; its buffered channel (or a
		// Stop close) absorbs the abandoned completion.
		return "", err
	}
	if !registered {
		return "", ErrStopped
	}
	if rangeErr != nil {
		return "", rangeErr
	}
	select {
	case v, ok := <-ch:
		if !ok {
			// Stop released the waiter — or the slot was truncated out from
			// under it (its value lives on only inside a checkpoint).
			return "", ErrStopped
		}
		return v, nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// DecidedPrefix returns the decided commands of slots [base, k) where k is
// the first undecided slot at this process and base is the live window's
// start (the truncated prefix below base lives on only inside
// checkpoints), flattening group-commit batches back into their ordered
// per-command sequence (one decided slot may contribute several
// commands). The context bounds the wait for the event loop (a loaded loop
// services the request only after the work ahead of it); it returns
// ErrStopped after the log's node has stopped.
func (l *Log) DecidedPrefix(ctx context.Context) ([]string, error) {
	ch := make(chan []string, 1)
	err := l.n.CallCtx(ctx, func() {
		var out []string
		for s := l.base; s < l.base+int64(len(l.slots)); s++ {
			v, ok := l.decided[s]
			if !ok {
				break
			}
			out = append(out, v)
		}
		ch <- out
	})
	if err != nil {
		if errors.Is(err, node.ErrStopped) {
			return nil, ErrStopped
		}
		return nil, err
	}
	raw := <-ch
	out := make([]string, 0, len(raw))
	for s, v := range raw {
		cmds, err := SlotCommands(v)
		if err != nil {
			return nil, fmt.Errorf("corrupt batch in slot %d: %w", s, err)
		}
		out = append(out, cmds...)
	}
	return out, nil
}

// SlotCommands expands a decided slot value into its ordered commands: a
// group-commit value yields the batch's commands (AppendResult.Index is the
// position within this slice), any other value yields itself. It is the
// public decoder for values read back through Get.
func SlotCommands(v string) ([]string, error) {
	if !wire.IsBatch(v) {
		return []string{v}, nil
	}
	return wire.DecodeBatch(v)
}

// Stop drains the append buffer (buffered commands get a bounded commit
// attempt — the close-time flush of group commit), then terminates the
// shared view synchronizer and every slot instance, and releases blocked
// calls.
func (l *Log) Stop() {
	l.batch.drainAndClose(5 * time.Second)
	l.sync.Stop()
	l.n.Call(func() {
		l.stopped = true
		for slot, ws := range l.waiters {
			for _, ch := range ws {
				close(ch)
			}
			delete(l.waiters, slot)
		}
		for slot, ws := range l.prefixWaiters {
			for _, ch := range ws {
				close(ch)
			}
			delete(l.prefixWaiters, slot)
		}
	})
	// Release proposal claims parked on the window gate; they observe the
	// stopped flag on re-check (resolveSlot).
	l.closeWindowGate()
	for _, c := range l.slots {
		c.Stop()
	}
}
