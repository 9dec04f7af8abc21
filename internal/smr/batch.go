package smr

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// Group-commit batching and pipelined appends: the log's only append path.
// Commands arriving within a short window (or until a count/byte cap)
// coalesce into one ordered batch that a single consensus instance decides
// as one opaque value, amortizing the round trip over every command in it.
// Up to BatchOptions.Pipeline batches are in flight at once, each on its
// own claimed slot, so consecutive slots' consensus rounds overlap instead
// of serializing on one outstanding decision. The zero BatchOptions is the
// degenerate case: one command per batch, proposed as the command itself.
//
// Consensus itself is untouched: a batch is one value like any other, so
// the safety argument (accepted-value precedence, quorum intersection) is
// exactly the paper's. What changes is the log surface: a decided slot may
// hold a batch, DecidedPrefix flattens batches back into the per-command
// sequence, and an append completes with the slot it shares plus its index
// within that slot's batch.
//
// An append's completion is gated on the local decided prefix reaching its
// slot, not just on the slot's own decision. This preserves the invariant
// the KV Sync barrier depends on: when Append returns, every slot up to and
// including the command's is decided at this process, so a later barrier
// can only commit to a higher slot and a barrier-then-read observes every
// previously completed write. (Pipelined claims would otherwise complete
// out of order across a still-undecided hole.)

// BatchOptions configures group commit of Log.Append. The zero value
// proposes every command alone in its slot, with DefaultPipeline slots in
// flight.
type BatchOptions struct {
	// Window bounds how long the first buffered command waits for company
	// when the log is otherwise quiet: a batch forming while no drain is
	// active flushes when the window expires (or a cap fills it first).
	// Under sustained load the window is a ceiling, not a floor — while
	// batches are being cut, arrivals flush as soon as an in-flight slot
	// frees up, so coalescing is driven by the outstanding rounds'
	// backpressure (classic self-clocked group commit) and light-load
	// appends never wait longer than the window. Zero skips the
	// quiet-period wait entirely.
	Window time.Duration
	// MaxOps caps the commands per batch; a full buffer flushes
	// immediately. Defaults to 1: one command per slot.
	MaxOps int
	// MaxBytes flushes early once the buffered commands' combined size
	// reaches it, bounding the decided value a slot carries. Defaults to
	// DefaultBatchMaxBytes.
	MaxBytes int
	// Pipeline is the number of batches allowed in flight concurrently,
	// each on its own consecutive slot. Defaults to DefaultPipeline.
	Pipeline int
	// Clock supplies the window timer and the close-time drain bound.
	// Defaults to the real clock; tests inject clock.NewFake to drive
	// window expiry deterministically.
	Clock clock.Clock
}

// Batching defaults.
const (
	DefaultBatchMaxBytes = 256 << 10
	DefaultPipeline      = 4
)

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxOps <= 0 {
		o.MaxOps = 1
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultBatchMaxBytes
	}
	if o.Pipeline <= 0 {
		o.Pipeline = DefaultPipeline
	}
	o.Clock = clock.Or(o.Clock)
	return o
}

// AppendResult is the completion of an asynchronous append: the slot the
// command's batch occupies, the command's index within that batch (0 for a
// batch of one), and the error if the append failed.
type AppendResult struct {
	Slot  int64
	Index int
	Err   error
}

// pendingOp is one buffered command and its completion channel.
type pendingOp struct {
	cmd  string
	done chan AppendResult
}

// batcher is the append buffer of one log endpoint. Enqueues come from
// client goroutines (not the node loop); a drainer goroutine cuts batches
// and proposal goroutines run them, bounded by the in-flight semaphore.
type batcher struct {
	l    *Log
	opts BatchOptions

	mu           sync.Mutex
	pending      []pendingOp
	pendingBytes int
	timer        clock.Timer // window timer; nil when no batch is forming
	// timerGen invalidates stale window timers: a fired timer blocked on mu
	// while the buffer drained and re-formed must not clobber the fresh
	// batch's timer or flush it early. Every arm/disarm bumps the
	// generation; onWindow acts only when its generation is still current.
	timerGen uint64
	draining bool
	closed   bool

	inflight chan struct{} // semaphore: batches in flight
	wg       sync.WaitGroup
	ctx      context.Context // canceled on Stop, releasing stuck proposals
	cancel   context.CancelFunc
}

func newBatcher(l *Log, opts BatchOptions) *batcher {
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow batcher-lifetime root; Log.Stop cancels it to release stuck proposals
	return &batcher{
		l:        l,
		opts:     opts.withDefaults(),
		inflight: make(chan struct{}, opts.withDefaults().Pipeline),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// enqueue buffers cmd and returns its completion channel. Flush triggers:
// the count cap, the byte cap, the window timer armed when the buffer goes
// non-empty, and close-time drain.
func (b *batcher) enqueue(cmd string) chan AppendResult {
	done := make(chan AppendResult, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		done <- AppendResult{Err: ErrStopped}
		return done
	}
	wasEmpty := len(b.pending) == 0
	b.pending = append(b.pending, pendingOp{cmd: cmd, done: done})
	b.pendingBytes += len(cmd)
	switch {
	case len(b.pending) >= b.opts.MaxOps || b.pendingBytes >= b.opts.MaxBytes:
		b.startDrainLocked()
	case wasEmpty && b.opts.Window > 0:
		b.timerGen++
		gen := b.timerGen
		b.timer = b.opts.Clock.AfterFunc(b.opts.Window, func() { b.onWindow(gen) })
	case wasEmpty:
		// No window: flush as soon as the drainer gets an in-flight slot.
		b.startDrainLocked()
	}
	b.mu.Unlock()
	return done
}

// remove drops a still-buffered op (identified by its completion channel)
// from the pending buffer, reporting whether it was removed before any
// proposal. A caller abandoning a canceled Append uses it to guarantee the
// command cannot commit later — only ops already cut into an in-flight
// batch keep the "may still commit" semantics of an in-flight proposal.
func (b *batcher) remove(done chan AppendResult) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, op := range b.pending {
		if op.done == done {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			b.pendingBytes -= len(op.cmd)
			if len(b.pending) == 0 && b.timer != nil {
				// The batch the timer was armed for is gone; release the
				// timer now rather than leaving it parked for up to a full
				// window (the generation guard already prevents a misfire).
				b.timer.Stop()
				b.timer = nil
				b.timerGen++
			}
			return true
		}
	}
	return false
}

// onWindow fires when the oldest buffered command has waited out the
// window. gen guards against stale timers (see timerGen).
func (b *batcher) onWindow(gen uint64) {
	b.mu.Lock()
	if gen != b.timerGen {
		b.mu.Unlock()
		return // a newer batch armed its own timer; not ours to flush
	}
	b.timer = nil
	b.timerGen++
	if len(b.pending) > 0 && !b.closed {
		b.startDrainLocked()
	}
	b.mu.Unlock()
}

// startDrainLocked ensures a drainer goroutine is running. Callers hold mu.
func (b *batcher) startDrainLocked() {
	if b.draining {
		return
	}
	b.draining = true
	b.wg.Add(1)
	go b.drain()
}

// drain cuts cap-sized batches off the buffer and hands each to a proposal
// goroutine, blocking on the in-flight semaphore for backpressure: while
// Pipeline batches are outstanding, arrivals keep accumulating into the
// next batch — the outstanding rounds are the group-commit window.
func (b *batcher) drain() {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		if len(b.pending) == 0 {
			if b.timer != nil {
				b.timer.Stop()
				b.timer = nil
				b.timerGen++
			}
			b.draining = false
			b.mu.Unlock()
			return
		}
		n := len(b.pending)
		if n > b.opts.MaxOps {
			n = b.opts.MaxOps
		}
		// The byte cap bounds the cut too, not just the flush trigger:
		// arrivals accumulating behind a full in-flight window must not
		// fuse into one oversized consensus value. Matching the enqueue
		// trigger, the command that crosses the cap stays in the batch, so
		// a single over-limit command still ships (alone).
		cut, bytes := 0, 0
		for cut < n {
			bytes += len(b.pending[cut].cmd)
			cut++
			if bytes >= b.opts.MaxBytes {
				break
			}
		}
		n = cut
		batch := make([]pendingOp, n)
		copy(batch, b.pending)
		rest := copy(b.pending, b.pending[n:])
		for i := rest; i < len(b.pending); i++ {
			b.pending[i] = pendingOp{} // release channel references
		}
		b.pending = b.pending[:rest]
		b.pendingBytes -= bytes // the cut loop summed exactly what left
		b.mu.Unlock()

		b.inflight <- struct{}{}
		b.wg.Add(1)
		go func(batch []pendingOp) {
			defer b.wg.Done()
			defer func() { <-b.inflight }()
			b.propose(batch)
		}(batch)
	}
}

// propose commits one batch: claim the next unclaimed slot, run its
// consensus instance on the encoded batch value, and retry on the following
// slot when a competing value wins. Completion waits for the local decided
// prefix to cover the slot (see the file comment).
func (b *batcher) propose(batch []pendingOp) {
	fail := func(err error) {
		for _, op := range batch {
			op.done <- AppendResult{Err: err}
		}
	}
	val := batch[0].cmd
	if len(batch) > 1 {
		cmds := make([]string, len(batch))
		for i, op := range batch {
			cmds[i] = op.cmd
		}
		v, err := wire.EncodeBatch(cmds)
		if err != nil {
			fail(err)
			return
		}
		val = v
	}
	l := b.l
	for {
		var (
			slot    int64
			stopped bool
		)
		l.n.Call(func() {
			stopped = l.stopped
			if l.claimNext < l.next {
				l.claimNext = l.next
			}
			slot = l.claimNext
			l.claimNext++
			l.noteOccupancy()
		})
		if stopped {
			fail(ErrStopped)
			return
		}
		// Resolve the claimed slot's instance. A claim beyond the window's
		// end waits out the next window extension (checkpoints extend the
		// window ahead of the decided prefix, so in-flight pipelined rounds
		// below the window end keep deciding and unblock the wait).
		inst, err := l.resolveSlot(b.ctx, slot)
		if errors.Is(err, ErrCompacted) {
			// The claim lost a race with truncation: competing batches
			// decided the slot and a checkpoint folded it before this value
			// was ever proposed there, so retrying cannot double-commit.
			continue
		}
		if err != nil {
			fail(err)
			return
		}
		v, err := inst.Propose(b.ctx, val)
		if err != nil {
			fail(err)
			return
		}
		// No explicit recordDecision here: the slot's OnDecide callback
		// recorded it in the loop step that released Propose, and next must
		// NOT be forced past the slot anyway — pipelined claims decide out
		// of order, and jumping next over a still-undecided hole would fire
		// awaitPrefix early and void the decided-prefix completion
		// invariant.
		if v != val {
			continue // slot taken by a competing value; retry on the next one
		}
		// Gate completion on the local decided prefix (see the file
		// comment). If the log stops while we wait — Stop releases prefix
		// waiters — completion still reports success WITHOUT the local
		// prefix guarantee: the consensus decision is durable (the batch IS
		// committed, globally), an error here would invite a double-commit
		// retry, and the stopping endpoint rejects all further reads, so no
		// caller can observe the weakened invariant through it.
		l.awaitPrefix(slot)
		// The append gate (SetGate) runs once per batch, after the local
		// prefix covers the batch's slot, before any completion is sent.
		if g := l.gate.Load(); g != nil {
			(*g)(slot)
		}
		for i, op := range batch {
			op.done <- AppendResult{Slot: slot, Index: i}
		}
		return
	}
}

// drainAndClose flushes the buffer, waits (bounded) for in-flight batches
// to finish, and rejects subsequent enqueues. Called from Log.Stop before
// the slot instances stop, so buffered commands get their commit attempt.
func (b *batcher) drainAndClose(wait time.Duration) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
		b.timerGen++
	}
	if len(b.pending) > 0 && !b.draining {
		// closed only blocks new enqueues; the drainer still cuts and
		// proposes whatever is buffered.
		b.draining = true
		b.wg.Add(1)
		go b.drain()
	}
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-b.opts.Clock.After(wait):
		// A batch that cannot commit (no quorum) must not wedge Stop; cancel
		// it and let the slot teardown release the proposal waiters.
	}
	b.cancel()
}
