// Package consensus implements the partially synchronous consensus protocol
// of Figure 6: a single-decree Paxos-like algorithm whose leader election is
// driven by the growing-timeout view synchronizer of §7 and whose quorums
// come from a generalized quorum system. With the classical majority quorum
// system it degenerates to ordinary Paxos with round-robin leaders — the
// baseline configuration used in the experiments.
package consensus

import (
	"context"
	"errors"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/viewsync"
	"repro/internal/wire"
)

// ErrStopped is returned by Propose after the instance has been stopped.
var ErrStopped = errors.New("consensus instance stopped")

// phase tracks protocol progress within a view (Figure 6, line 3).
type phase int

const (
	phaseEnter phase = iota + 1
	phasePropose
	phaseAccept
	phaseDecide
)

// Wire bodies, binary-encoded (codec.go). HasVal distinguishes ⊥ from an
// empty-string value.
type (
	msg1B struct {
		View   int64
		AView  int64
		Val    string
		HasVal bool
		// Mine forwards the sender's own not-yet-accepted proposal. Figure 6
		// only lets a leader propose its local value (line 11 skips its turn
		// otherwise), which serializes commits behind leadership rotation:
		// a proposal registered at a non-leader waits out the rotation even
		// when the leader is idle. Consensus may decide any proposed value,
		// so carrying the proposal in the 1B lets the current leader adopt
		// it immediately — the accepted-value precedence rule (lines 10-15)
		// stays untouched, so safety is unchanged.
		Mine    string
		HasMine bool
	}
	msg2A struct {
		View int64
		Val  string
	}
	// msg2B echoes the accepted 2A.
	msg2B = msg2A
	// msgDec pushes a learned decision. Decided processes stop entering
	// views; instead they announce the decision once and answer any later
	// protocol message for the instance with it.
	msgDec struct {
		Val string
	}
)

// oneB is a recorded 1B message.
type oneB struct {
	mine    string
	hasMine bool
	aview   int64
	val     string
	hasVal  bool
}

// Options configures a consensus endpoint.
type Options struct {
	// Name scopes wire topics. Defaults to "cons".
	Name string
	// Reads and Writes are the quorum families (phase-1 / phase-2 quorums).
	Reads, Writes []graph.BitSet
	// C is the view-duration constant: view v lasts v*C. Defaults to 25ms.
	C time.Duration
	// OnDecide, when set, is invoked exactly once with the decided value,
	// from the node's event loop, as soon as this process learns the
	// decision. It lets layers above (e.g. a replicated log) react without
	// polling.
	OnDecide func(val string)
	// NoSync suppresses the instance's private view synchronizer; the owner
	// drives view entry through StepView instead. A replicated log uses it
	// to run one synchronizer for all of its slots and to batch the default
	// 1B messages of idle slots into a single message per view.
	NoSync bool
	// OnActive, when set, is invoked exactly once, from the node's event
	// loop, the first time the instance leaves its virgin state: a local
	// proposal registers, a direct (non-default) protocol message arrives,
	// or a decision is learned. It fires before the triggering event is
	// processed, so the owner can fast-forward a virgin instance into the
	// current view (StepView) first. A replicated log uses it to track the
	// active frontier of its pre-created slots: slots that never fire stay
	// out of every per-view code path, making idle capacity free.
	OnActive func()
}

// Consensus is one process's endpoint of a single-shot consensus object.
type Consensus struct {
	n      *node.Node
	reads  []graph.BitSet
	writes []graph.BitSet
	sync   *viewsync.Synchronizer

	// Loop-confined state (Figure 6, lines 1-3).
	view      int64
	aview     int64
	val       string
	hasVal    bool
	myVal     string
	hasMine   bool
	ph        phase
	oneBs     map[int64]map[failure.Proc]oneB   // per-view 1B messages (leader)
	twoBs     map[int64]map[failure.Proc]string // per-view 2B messages
	future1Bs map[int64]map[failure.Proc]msg1B  // 1Bs for views we have not entered yet
	decided   bool
	decVal    string
	waiters   []chan string
	onDecide  func(string)
	onActive  func()
	activated bool
	// sentMineView is the last view in which this process sent a 1B
	// carrying its pending proposal (Mine), deduplicating the view-entry 1B
	// against Propose's mid-view forward.
	sentMineView int64
	stopped      bool

	topic1B  string
	topic2A  string
	topic2B  string
	topicDec string
}

// New installs a consensus endpoint on the node and starts its view
// synchronizer.
func New(n *node.Node, opts Options) *Consensus {
	if opts.Name == "" {
		opts.Name = "cons"
	}
	if opts.C <= 0 {
		opts.C = 25 * time.Millisecond
	}
	c := &Consensus{
		n:         n,
		reads:     opts.Reads,
		writes:    opts.Writes,
		oneBs:     make(map[int64]map[failure.Proc]oneB),
		twoBs:     make(map[int64]map[failure.Proc]string),
		future1Bs: make(map[int64]map[failure.Proc]msg1B),
		onDecide:  opts.OnDecide,
		onActive:  opts.OnActive,
		topic1B:   opts.Name + "/1b",
		topic2A:   opts.Name + "/2a",
		topic2B:   opts.Name + "/2b",
		topicDec:  opts.Name + "/dec",
	}
	n.Handle(c.topic1B, c.on1B)
	n.Handle(c.topic2A, c.on2A)
	n.Handle(c.topic2B, c.on2B)
	n.Handle(c.topicDec, c.onDec)
	if !opts.NoSync {
		c.sync = viewsync.New(opts.C, func(v viewsync.View) {
			// Hop onto the event loop; the synchronizer runs its own goroutine.
			n.Do(func() { c.enterView(int64(v)) })
		})
		c.sync.Start()
	}
	return c
}

// enterView implements Figure 6, lines 27-31.
func (c *Consensus) enterView(v int64) {
	c.stepView(v, false)
}

// StepView drives view entry for an externally synchronized instance
// (Options.NoSync); it must run on the node's event loop. An instance that
// is active — it has a local proposal or an accepted value — sends its own
// 1B as usual and returns false. An idle instance suppresses the 1B and
// returns true: the caller batches a default 1B on its behalf (see
// Default1B). A decided instance returns false and sends nothing; it has
// announced the decision and answers stray protocol messages with it.
func (c *Consensus) StepView(v int64) (idle bool) {
	return c.stepView(v, true)
}

// stepView is the shared view-entry bookkeeping (Figure 6, lines 27-31).
// With suppressIdle, the 1B of an instance with nothing to report is left
// to the caller to batch.
func (c *Consensus) stepView(v int64, suppressIdle bool) (idle bool) {
	if c.stopped || v <= c.view {
		return false
	}
	c.view = v
	delete(c.oneBs, v-2) // prune stale per-view state
	delete(c.twoBs, v-2)
	c.ph = phaseEnter
	// Replay 1Bs that arrived before we entered this view. View entry is
	// not simultaneous (synchronizers start staggered and drift), and with
	// one synchronizer per process the entry ORDER is stable — a leader
	// whose peers consistently enter first would otherwise drop their
	// quorum contributions every single view and never propose.
	for fv := range c.future1Bs {
		if fv < v {
			delete(c.future1Bs, fv)
		}
	}
	if m, ok := c.future1Bs[v]; ok {
		delete(c.future1Bs, v)
		for from, b := range m {
			c.handle1B(from, b)
		}
	}
	if c.decided {
		// A decided process no longer drives views: the decision was pushed
		// to all (onDec / decide), and any process still running the slot
		// gets it again in response to its 1B/2A/2B.
		return false
	}
	if suppressIdle && !c.hasVal && !c.hasMine {
		return true
	}
	leader := failure.Proc(viewsync.Leader(viewsync.View(v), c.n.ClusterSize()))
	c.n.Send(leader, c.topic1B, msg1B{
		View: v, AView: c.aview, Val: c.val, HasVal: c.hasVal,
		Mine: c.myVal, HasMine: c.hasMine,
	})
	if c.hasMine {
		c.sentMineView = v
	}
	return false
}

// Default1B injects the 1B an idle process batched for this instance: the
// leader treats it exactly as an arriving msg1B{View: view, AView: 0,
// HasVal: false}. It must run on the node's event loop. Defaults are the
// "nothing is happening here" signal, so they deliberately do NOT activate
// a virgin instance, and they never displace a 1B already recorded from
// the same peer this view — a direct 1B may carry a forwarded proposal
// (Mine) that a later-replayed default must not erase.
func (c *Consensus) Default1B(from failure.Proc, view int64) {
	if m, ok := c.oneBs[view]; ok {
		if _, dup := m[from]; dup {
			return
		}
	}
	c.handle1B(from, msg1B{View: view})
}

// activate fires the one-shot activity notification. Every direct protocol
// event calls it before processing, so an owner tracking active instances
// can fast-forward a virgin one into the current view first.
func (c *Consensus) activate() {
	if c.activated {
		return
	}
	c.activated = true
	if c.onActive != nil {
		c.onActive()
	}
}

// on1B decodes a 1B message (leader side). A direct 1B means the sender's
// instance is active, so the local one activates too (a virgin leader
// instance would otherwise drop the 1B as impossibly far ahead of view 0).
func (c *Consensus) on1B(from failure.Proc, m wire.Message) {
	var b msg1B
	if wire.Decode(m, &b) != nil {
		return
	}
	if c.stopped {
		return
	}
	c.activate()
	c.handle1B(from, b)
}

// future1BWindow bounds how far ahead of our view a parked 1B may be.
const future1BWindow = 4

// handle1B implements the leader's proposal rule (Figure 6, lines 8-16).
func (c *Consensus) handle1B(from failure.Proc, b msg1B) {
	if c.stopped {
		return
	}
	if c.decided {
		// The sender is still running the slot; hand it the decision.
		c.n.Send(from, c.topicDec, msgDec{Val: c.decVal})
		return
	}
	if b.View > c.view && b.View <= c.view+future1BWindow {
		// The sender's synchronizer is ahead of ours; park the 1B for
		// replay at our own entry into its view (see stepView). A contentless
		// default must not displace an already-parked 1B from the same peer
		// (messages reorder, and the parked one may carry an accepted value
		// or a forwarded proposal) — mirror Default1B's current-view dedup.
		m := c.future1Bs[b.View]
		if m == nil {
			m = make(map[failure.Proc]msg1B)
			c.future1Bs[b.View] = m
		}
		if _, parked := m[from]; parked && !b.HasVal && !b.HasMine {
			return
		}
		m[from] = b
		return
	}
	if b.View != c.view || c.ph != phaseEnter {
		return // messages from earlier views are out of date (§7)
	}
	if viewsync.Leader(viewsync.View(c.view), c.n.ClusterSize()) != int(c.n.ID()) {
		return // not the leader of this view
	}
	views, ok := c.oneBs[c.view]
	if !ok {
		views = make(map[failure.Proc]oneB)
		c.oneBs[c.view] = views
	}
	// A contentless 1B (no accepted value, no forwarded proposal) must not
	// displace a same-view record that carries either: messages reorder
	// under the randomized transports, and dropping a recorded Mine would
	// stall its commit until the next view (same dedup as Default1B and the
	// future-1B parking path).
	if prev, dup := views[from]; !(dup && !b.HasVal && !b.HasMine && (prev.hasVal || prev.hasMine)) {
		views[from] = oneB{aview: b.AView, val: b.Val, hasVal: b.HasVal, mine: b.Mine, hasMine: b.HasMine}
	}
	c.tryPropose()
}

// tryPropose runs the leader's proposal rule (Figure 6, lines 10-15) over
// the 1Bs collected for the current view: with a read quorum of responders,
// propose the value accepted in the highest view, else our own. It runs on
// every 1B arrival and — crucially for throughput — when a local proposal
// registers mid-view (Propose): line 11's "skip our turn" merely defers
// until a value exists, so re-evaluating the same rule the moment one
// arrives is protocol-equivalent to the quorum's 1Bs having arrived later,
// and turns leader-local commit latency from "wait for the next view
// boundary" (hundreds of ms once views have grown) into a 2A/2B round trip.
// The phase check keeps at most one proposal per view. Runs on the node
// loop.
func (c *Consensus) tryPropose() {
	if c.stopped || c.decided || c.ph != phaseEnter {
		return
	}
	if viewsync.Leader(viewsync.View(c.view), c.n.ClusterSize()) != int(c.n.ID()) {
		return // not the leader of this view
	}
	views, ok := c.oneBs[c.view]
	if !ok {
		return
	}
	responders := graph.NewBitSet(c.n.ClusterSize())
	for p := range views {
		responders.Add(int(p))
	}
	ri := quorumIn(c.reads, responders)
	if ri < 0 {
		return
	}
	var (
		chosen    string
		hasChosen bool
		bestView  int64 = -1
	)
	c.reads[ri].ForEach(func(p int) {
		r := views[failure.Proc(p)]
		if r.hasVal && r.aview > bestView {
			bestView = r.aview
			chosen = r.val
			hasChosen = true
		}
	})
	if !hasChosen {
		// No accepted value in the quorum: propose our own, else a proposal
		// forwarded in ANY recorded 1B — not just the matched quorum's, as a
		// forwarder outside it would otherwise stall until the next view
		// (lowest process id wins, for determinism). Any proposed value is
		// safe to propose; only accepted values carry precedence
		// constraints.
		switch {
		case c.hasMine:
			chosen = c.myVal
		default:
			responders.ForEach(func(p int) {
				r := views[failure.Proc(p)]
				if !hasChosen && r.hasMine {
					chosen = r.mine
					hasChosen = true
				}
			})
			if !hasChosen {
				return // nothing proposed anywhere yet: skip our turn
			}
		}
	}
	c.n.Broadcast(c.topic2A, msg2A{View: c.view, Val: chosen})
	c.ph = phasePropose
}

// on2A implements acceptance (Figure 6, lines 17-22).
func (c *Consensus) on2A(from failure.Proc, m wire.Message) {
	var a msg2A
	if wire.Decode(m, &a) != nil {
		return
	}
	if c.stopped {
		return
	}
	c.activate()
	if c.decided {
		c.n.Send(from, c.topicDec, msgDec{Val: c.decVal})
		return
	}
	if a.View != c.view {
		return
	}
	if c.ph != phaseEnter && c.ph != phasePropose {
		return
	}
	c.val = a.Val
	c.hasVal = true
	c.aview = c.view
	c.n.Broadcast(c.topic2B, msg2B{View: c.view, Val: a.Val})
	c.ph = phaseAccept
}

// on2B implements the decision rule (Figure 6, lines 23-26). A decided
// instance answers with the decision without decoding the 2B: it needs
// only the sender, and the value is a whole batch.
func (c *Consensus) on2B(from failure.Proc, m wire.Message) {
	if c.stopped {
		return
	}
	if c.decided {
		c.n.Send(from, c.topicDec, msgDec{Val: c.decVal})
		return
	}
	var b msg2B
	if wire.Decode(m, &b) != nil {
		return
	}
	c.activate()
	if b.View != c.view {
		return
	}
	views, ok := c.twoBs[c.view]
	if !ok {
		views = make(map[failure.Proc]string)
		c.twoBs[c.view] = views
	}
	views[from] = b.Val
	responders := graph.NewBitSet(c.n.ClusterSize())
	for p, v := range views {
		if v == b.Val {
			responders.Add(int(p))
		}
	}
	if quorumIn(c.writes, responders) < 0 {
		return
	}
	c.val = b.Val
	c.hasVal = true
	c.aview = c.view
	c.ph = phaseDecide
	c.decide(b.Val, true)
}

// onDec adopts a decision learned from a peer that already decided.
// Most decision copies reach an already-decided instance, so the check
// comes before the decode.
func (c *Consensus) onDec(from failure.Proc, m wire.Message) {
	if c.stopped || c.decided {
		return
	}
	var d msgDec
	if wire.Decode(m, &d) != nil {
		return
	}
	c.activate()
	c.val = d.Val
	c.hasVal = true
	c.ph = phaseDecide
	// Announce in turn: under unidirectional connectivity the original
	// announcement may be unable to reach processes this one can reach.
	c.decide(d.Val, true)
}

// Learn adopts an externally learned decision (e.g. a replicated log
// catching a healed replica up from a peer's decided slots) without
// re-announcing it. It must run on the node's event loop.
func (c *Consensus) Learn(val string) {
	if c.stopped || c.decided {
		return
	}
	c.activate()
	c.val = val
	c.hasVal = true
	c.ph = phaseDecide
	c.decide(val, false)
}

// decide records the decision, wakes waiters, fires OnDecide and, when
// announce is set, pushes the decision to all — after which this process
// stops driving views for the instance (see stepView). Runs on the loop.
func (c *Consensus) decide(val string, announce bool) {
	if c.decided {
		return
	}
	c.decided = true
	c.decVal = val
	for _, w := range c.waiters {
		w <- val
	}
	c.waiters = nil
	if announce {
		c.n.Broadcast(c.topicDec, msgDec{Val: val})
	}
	if c.onDecide != nil {
		c.onDecide(val)
	}
}

// Propose submits x and blocks until this process learns the decision
// (Figure 6, lines 4-7). It may be called by multiple goroutines; the first
// value registered at this process becomes its proposal.
func (c *Consensus) Propose(ctx context.Context, x string) (string, error) {
	ch := make(chan string, 1)
	registered := false
	err := c.n.CallCtx(ctx, func() {
		if c.stopped {
			// A compacting log stops decided instances when it truncates
			// them; the decision is immutable, so a Propose that loses the
			// race with truncation still learns it instead of ErrStopped.
			if c.decided {
				registered = true
				ch <- c.decVal
			}
			return
		}
		registered = true
		if !c.hasMine {
			c.myVal = x
			c.hasMine = true
		}
		// Activation fast-forwards a virgin instance into the current view
		// (the owner's OnActive calls StepView), which also announces the
		// fresh proposal's 1B to the current leader.
		c.activate()
		if c.decided {
			ch <- c.decVal
			return
		}
		c.waiters = append(c.waiters, ch)
		// If this process leads the current view and already holds a 1B
		// read quorum (idle instances batch default 1Bs at view entry), the
		// fresh proposal can be proposed right now instead of waiting out
		// the view (see tryPropose). Otherwise forward the proposal to the
		// current leader in a fresh 1B so it can be adopted mid-view —
		// unless the activation above just stepped into this view and sent
		// a Mine-carrying 1B already (sentMineView). A stale or early view
		// on either side is handled by the normal 1B rules (drop / park).
		if c.view > 0 {
			leader := failure.Proc(viewsync.Leader(viewsync.View(c.view), c.n.ClusterSize()))
			switch {
			case int(leader) == int(c.n.ID()):
				c.tryPropose()
			case c.sentMineView != c.view:
				c.n.Send(leader, c.topic1B, msg1B{
					View: c.view, AView: c.aview, Val: c.val, HasVal: c.hasVal,
					Mine: c.myVal, HasMine: true,
				})
				c.sentMineView = c.view
			}
		}
	})
	if err != nil {
		// The registration may still run later; its buffered channel (or a
		// Stop close) absorbs the abandoned completion.
		return "", err
	}
	if !registered {
		return "", ErrStopped
	}
	select {
	case v, ok := <-ch:
		if !ok {
			return "", ErrStopped
		}
		return v, nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// Decided reports the decision at this process, if any.
func (c *Consensus) Decided() (string, bool) {
	var (
		v  string
		ok bool
	)
	c.n.Call(func() { v, ok = c.decVal, c.decided }) //lint:allow ctxflow bounded single loop hop reading two fields; Call aborts when the node stops
	return v, ok
}

// View returns the process's current view (for experiments).
func (c *Consensus) View() int64 {
	var v int64
	c.n.Call(func() { v = c.view }) //lint:allow ctxflow bounded single loop hop reading one field; Call aborts when the node stops
	return v
}

// Stop terminates the synchronizer (if private), releases pending Propose
// calls, and unregisters the instance's wire topics — a compacting
// replicated log truncates thousands of decided slots over its lifetime,
// and each must release its registry entries or the node's handler table
// grows without bound. Stray messages for a stopped instance are dropped
// by the node.
func (c *Consensus) Stop() {
	if c.sync != nil {
		c.sync.Stop()
	}
	c.n.Do(func() {
		c.stopped = true
		for _, w := range c.waiters {
			close(w)
		}
		c.waiters = nil
		c.n.Unhandle(c.topic1B)
		c.n.Unhandle(c.topic2A)
		c.n.Unhandle(c.topic2B)
		c.n.Unhandle(c.topicDec)
	})
}

func quorumIn(family []graph.BitSet, responders graph.BitSet) int {
	for i, q := range family {
		if q.SubsetOf(responders) {
			return i
		}
	}
	return -1
}
