package smr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/node"
	"repro/internal/wire"
)

// kvCommand is the log entry of the replicated KV store, binary-encoded
// as one record (codec.go).
type kvCommand struct {
	// ID makes commands unique across clients (Append requires uniqueness).
	ID string
	// Key and Val describe a set operation. An empty Key is a no-op entry
	// (the Sync barrier, or a Meta carrier).
	Key string
	Val string
	// Meta carries an opaque control payload through the log's total order
	// (lease grants and renewals; see AppendMeta). A Meta entry mutates no
	// KV state; it is delivered in commit order to the observer installed
	// with SetMetaObserver.
	Meta string
}

// KV is a linearizable replicated key-value store built on the replicated
// log: every Set is a log append; Get serves the incrementally maintained
// applied state of the locally decided prefix. Gets are linearizable with
// respect to Sets observed at this process; a reader needing freshness
// across processes calls Sync first, which commits a no-op barrier (or uses
// the lease fast path, see internal/lease and GetIf).
type KV struct {
	log    *Log
	nodeID int
	seq    atomic.Int64

	// Applied state, confined to the node loop: applySlot folds each slot
	// in as the decided prefix advances (Log.OnCommit), so a read is one
	// map lookup instead of an O(history) prefix replay. cursor is the
	// apply cursor — the next slot to fold — and always equals the log's
	// first locally undecided slot. metaSlot/meta remember the newest Meta
	// entry applied, so a checkpoint can carry it (see Snapshot).
	applied  map[string]string
	cursor   int64
	corrupt  error
	onMeta   func(slot int64, meta string)
	metaSlot int64
	meta     string
}

// NewKV installs a replicated KV endpoint on the node. All processes of one
// store must use the same options. Options.OnCommit and Options.Snapshotter
// are owned by the KV's apply loop and must be left unset.
func NewKV(n *node.Node, opts Options) *KV {
	if opts.Name == "" {
		opts.Name = "kv"
	}
	kv := &KV{
		nodeID:  int(n.ID()),
		applied: make(map[string]string),
	}
	opts.OnCommit = kv.applySlot
	opts.Snapshotter = kv
	kv.log = New(n, opts)
	return kv
}

// applySlot folds one newly decided slot into the applied map. Runs on the
// node loop, in slot order, exactly once per slot (Log.OnCommit). A corrupt
// entry poisons the endpoint's reads (first error wins) rather than being
// skipped silently — the pre-refactor Get failed the same way.
func (kv *KV) applySlot(slot int64, v string) {
	kv.cursor = slot + 1
	cmds, err := SlotCommands(v)
	if err != nil {
		if kv.corrupt == nil {
			kv.corrupt = fmt.Errorf("corrupt batch in slot %d: %w", slot, err)
		}
		return
	}
	for _, rec := range cmds {
		cmd, err := decodeKVCommand(rec)
		if err != nil {
			if kv.corrupt == nil {
				kv.corrupt = fmt.Errorf("corrupt log entry in slot %d: %w", slot, err)
			}
			continue
		}
		if cmd.Key != "" {
			key, val := detach(cmd.Key, cmd.Val)
			kv.applied[key] = val
		}
		if cmd.Meta != "" {
			kv.metaSlot, kv.meta = slot, strings.Clone(cmd.Meta)
			if kv.onMeta != nil {
				kv.onMeta(slot, kv.meta)
			}
		}
	}
}

// detach copies key and val out of the decided slot value they are
// substrings of, in one allocation, so the applied map does not keep whole
// batches alive.
func detach(key, val string) (string, string) {
	var sb strings.Builder
	sb.Grow(len(key) + len(val))
	sb.WriteString(key)
	sb.WriteString(val)
	kv := sb.String()
	return kv[:len(key)], kv[len(key):]
}

// Snapshot serializes the applied state for a checkpoint at frontier
// (smr.Snapshotter). It runs on the node loop in the same step as the fold
// that reached the frontier, so the map is exactly the decided prefix
// [0, frontier) and the synchronous pooled encoder can read it in place.
// The newest Meta entry rides along: a process restored from this
// checkpoint replays it, so control state carried through the log's total
// order — a lease grant gating writers — survives compaction (see Restore).
func (kv *KV) Snapshot(frontier int64) (string, error) {
	if kv.corrupt != nil {
		return "", fmt.Errorf("refusing to checkpoint corrupt state: %w", kv.corrupt)
	}
	return wire.EncodeCheckpoint(wire.Checkpoint{
		Frontier: frontier,
		State:    kv.applied,
		MetaSlot: kv.metaSlot,
		Meta:     kv.meta,
	})
}

// Restore replaces the applied state with an installed checkpoint
// (smr.Snapshotter; runs on the node loop). The checkpoint's newest Meta
// entry is replayed through the meta observer: the lease manager's grants
// travel as Meta entries, and replaying the latest one re-establishes the
// writer gate an installed process would otherwise miss — a replay at a
// later apply time only lengthens the gate, which is the conservative
// direction for the lease freshness argument.
func (kv *KV) Restore(state string, frontier int64) error {
	c, err := wire.DecodeCheckpoint(state)
	if err != nil {
		return fmt.Errorf("restore checkpoint: %w", err)
	}
	if c.Frontier != frontier {
		return fmt.Errorf("restore checkpoint: frontier %d does not match install frontier %d", c.Frontier, frontier)
	}
	kv.applied = c.State
	if kv.applied == nil {
		kv.applied = make(map[string]string)
	}
	kv.cursor = frontier
	kv.metaSlot, kv.meta = c.MetaSlot, c.Meta
	if c.Meta != "" && kv.onMeta != nil {
		kv.onMeta(c.MetaSlot, c.Meta)
	}
	return nil
}

func (kv *KV) nextID() string {
	return fmt.Sprintf("p%d-%d", kv.nodeID, kv.seq.Add(1))
}

// Set commits key=val and returns the log slot it occupies. The slot may
// be shared with other commands of the same group commit.
func (kv *KV) Set(ctx context.Context, key, val string) (int64, error) {
	return kv.log.Append(ctx, kvCommand{ID: kv.nextID(), Key: key, Val: val}.encode())
}

// SetResult is the completion of an asynchronous Set: the slot the write's
// batch occupies, its index within the batch, and any error. It is the
// log-level AppendResult — the alias keeps SetAsync adapter-free (the
// channel the caller reads is the batcher's own completion channel, no
// per-write relay goroutine on the hot path).
type SetResult = AppendResult

// SetAsync submits key=val and returns a channel receiving its completion,
// letting one client keep several writes in flight so consecutive group
// commits pipeline instead of serializing on each decision. The channel is
// buffered; abandoning it leaks nothing, but ctx does not withdraw a
// buffered write — a submitted write will be proposed and may commit
// regardless (see Log.AppendAsync); use the synchronous Set
// when a canceled write must be safely retriable.
func (kv *KV) SetAsync(ctx context.Context, key, val string) <-chan SetResult {
	return kv.log.AppendAsync(ctx, kvCommand{ID: kv.nextID(), Key: key, Val: val}.encode())
}

// KVPair is one key=value write of a SetMany.
type KVPair struct {
	Key, Val string
}

// SetMany commits every pair, coalescing them into as few group commits as
// the log's batch configuration allows (one, when they fit a single batch),
// and returns the slot of each pair, aligned with the input order. With one
// command per slot the writes still overlap (up to the pipeline depth of
// consensus rounds run concurrently). The pairs are CONCURRENT writes:
// pairs sharing one group commit preserve input order within their slot,
// but pairs split across batches may commit in either order — exactly
// like concurrent Sets. Callers needing a total order across same-key
// writes issue sequential Sets (a Set started after another completed
// always commits above it). On error the committed pairs keep their slots
// and failed pairs report slot -1; the first error is returned.
func (kv *KV) SetMany(ctx context.Context, pairs []KVPair) ([]int64, error) {
	chans := make([]<-chan SetResult, len(pairs))
	for i, p := range pairs {
		chans[i] = kv.SetAsync(ctx, p.Key, p.Val)
	}
	slots := make([]int64, len(pairs))
	var firstErr error
	for i, ch := range chans {
		res := <-ch
		slots[i] = res.Slot
		if res.Err != nil {
			slots[i] = -1
			if firstErr == nil {
				firstErr = res.Err
			}
		}
	}
	return slots, firstErr
}

// Get returns the value of key in the decided prefix at this process, and
// whether it was present. It is one lookup in the incrementally applied
// state (see applySlot), not a prefix replay. The context makes the read
// path cancellable, like every other quorum operation in the library (the
// applied state is served by the node's event loop, which may be busy with
// protocol work).
func (kv *KV) Get(ctx context.Context, key string) (string, bool, error) {
	var (
		val   string
		found bool
		cerr  error
	)
	err := kv.log.n.CallCtx(ctx, func() {
		cerr = kv.corrupt
		val, found = kv.applied[key]
	})
	if err != nil {
		if errors.Is(err, node.ErrStopped) {
			return "", false, ErrStopped
		}
		return "", false, err
	}
	if cerr != nil {
		return "", false, cerr
	}
	return val, found, nil
}

// GetIf is Get guarded by a predicate evaluated on the node loop in the
// same loop step as the lookup: served reports whether ok() held and the
// read was performed. It is the leased-read hook — the lease manager passes
// its validity check, so lease expiry and the read are decided atomically
// at the read's linearization point (a lease that expires between check and
// lookup cannot serve a stale value).
func (kv *KV) GetIf(ctx context.Context, key string, ok func() bool) (val string, found, served bool, err error) {
	var cerr error
	err = kv.log.n.CallCtx(ctx, func() {
		if !ok() {
			return
		}
		served = true
		cerr = kv.corrupt
		val, found = kv.applied[key]
	})
	if err != nil {
		if errors.Is(err, node.ErrStopped) {
			err = ErrStopped
		}
		return "", false, false, err
	}
	if cerr != nil {
		return "", false, true, cerr
	}
	return val, found, served, nil
}

// GetManyIf is GetIf over several keys in one loop step: one guard check,
// one atomic multi-key lookup. Missing keys are absent from the result.
func (kv *KV) GetManyIf(ctx context.Context, keys []string, ok func() bool) (m map[string]string, served bool, err error) {
	var cerr error
	err = kv.log.n.CallCtx(ctx, func() {
		if !ok() {
			return
		}
		served = true
		cerr = kv.corrupt
		m = make(map[string]string, len(keys))
		for _, k := range keys {
			if v, found := kv.applied[k]; found {
				m[k] = v
			}
		}
	})
	if err != nil {
		if errors.Is(err, node.ErrStopped) {
			err = ErrStopped
		}
		return nil, false, err
	}
	if cerr != nil {
		return nil, true, cerr
	}
	return m, served, nil
}

// Sync commits a barrier no-op: after it returns, this process's decided
// prefix includes every Set that completed before Sync was invoked, making a
// following Get linearizable.
func (kv *KV) Sync(ctx context.Context) error {
	_, err := kv.log.Append(ctx, kvCommand{ID: kv.nextID()}.encode())
	return err
}

// AppendMeta commits an opaque control entry carrying meta through the
// log's total order and returns its slot. The entry mutates no KV state;
// every process delivers it, in commit order, to the observer installed
// with SetMetaObserver. The lease manager commits grants and renewals this
// way, so lease state transitions are ordered against the writes they
// guard by the log itself.
func (kv *KV) AppendMeta(ctx context.Context, meta string) (int64, error) {
	return kv.log.Append(ctx, kvCommand{ID: kv.nextID(), Meta: meta}.encode())
}

// SetMetaObserver installs the observer for Meta entries (AppendMeta). It
// runs on the node loop as the decided prefix advances, in commit order;
// install it before the store takes traffic. Nil removes the observer.
func (kv *KV) SetMetaObserver(fn func(slot int64, meta string)) {
	kv.log.n.Call(func() { kv.onMeta = fn }) //lint:allow ctxflow install-time hook, one bounded loop hop before the store takes traffic
}

// SetGate installs the append-completion gate on the underlying log (see
// Log.SetGate): every Set, SetAsync, SetMany, Sync and AppendMeta
// completion runs the gate after the local decided prefix covers its slot.
func (kv *KV) SetGate(gate func(slot int64)) { kv.log.SetGate(gate) }

// WaitApplied blocks until this process's applied state covers slot — i.e.
// a Get here observes every command up to and including it — the context is
// done, or the endpoint stops. The lease manager's holder side answers
// writers' visibility asks with it.
func (kv *KV) WaitApplied(ctx context.Context, slot int64) error {
	return kv.log.WaitPrefix(ctx, slot)
}

// Stop releases the underlying log.
func (kv *KV) Stop() { kv.log.Stop() }
