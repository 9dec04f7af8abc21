package smr

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/node"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// newCompactCluster builds a 4-process KV cluster with a fast compaction
// cadence (8-slot window, checkpoint every 4 slots, short ack-timeout so
// laggard fallback paths run inside test budgets); mutate adjusts the shared
// options per test.
func newCompactCluster(t *testing.T, mutate func(*Options)) *smrCluster {
	t.Helper()
	qs := quorum.Figure1()
	c := &smrCluster{net: transport.NewMem(4,
		transport.WithDelay(transport.UniformDelay{Min: 10 * time.Microsecond, Max: 300 * time.Microsecond}),
		transport.WithSeed(17))}
	for i := 0; i < 4; i++ {
		nd := node.New(failure.Proc(i), c.net)
		c.nodes = append(c.nodes, nd)
		opts := Options{
			Slots: 8, Reads: qs.Reads, Writes: qs.Writes, ViewC: 15 * time.Millisecond,
			Compaction: CompactionOptions{Interval: 4, AckTimeout: 400 * time.Millisecond},
		}
		if mutate != nil {
			mutate(&opts)
		}
		c.kvs = append(c.kvs, NewKV(nd, opts))
	}
	return c
}

// TestCompactionSustainedWritesOutliveSlotBudget drives 5x the slot budget
// through an 8-slot window: checkpoints must keep truncating so every write
// lands and the window's high-water mark stays bounded.
func TestCompactionSustainedWritesOutliveSlotBudget(t *testing.T) {
	c := newCompactCluster(t, nil)
	defer c.stop()
	ctx := ctxSec(t, 120)

	const writes = 40
	for i := 0; i < writes; i++ {
		if _, err := c.kvs[0].Set(ctx, fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	v, ok, err := c.kvs[0].Get(ctx, fmt.Sprintf("k%d", (writes-1)%4))
	if err != nil || !ok || v != fmt.Sprintf("v%d", writes-1) {
		t.Fatalf("read-back = %q/%v/%v", v, ok, err)
	}
	m := c.kvs[0].CompactionMetrics()
	if m.Checkpoints == 0 || m.Truncations == 0 || m.SlotsFreed == 0 {
		t.Fatalf("no compaction under sustained writes: %+v", m)
	}
	// The window plus the truncation lag of a healthy cluster (peers ack
	// within a round trip) must bound occupancy well below the write total.
	if m.PeakOccupancy > 3*8 {
		t.Fatalf("peak occupancy %d not bounded by the window (wrote %d slots)", m.PeakOccupancy, writes)
	}
}

// TestCompactionWithPipelinedBatches keeps several group commits in flight
// while checkpoints truncate the decided prefix underneath them: an
// in-flight pipelined batch whose claimed slot crosses the truncation
// frontier must either commit normally or wait out a window extension —
// never fail or corrupt the fold.
func TestCompactionWithPipelinedBatches(t *testing.T) {
	c := newCompactCluster(t, func(o *Options) {
		o.Batch = BatchOptions{MaxOps: 4, Window: time.Millisecond, Pipeline: 4}
	})
	defer c.stop()
	ctx := ctxSec(t, 120)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := c.kvs[w%2].Set(ctx, fmt.Sprintf("w%d", w), fmt.Sprintf("v%d", i)); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.kvs[1].Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for w := 0; w < 4; w++ {
		v, ok, err := c.kvs[1].Get(ctx, fmt.Sprintf("w%d", w))
		if err != nil || !ok || v != "v29" {
			t.Fatalf("writer %d final read = %q/%v/%v", w, v, ok, err)
		}
	}
	if m := c.kvs[0].CompactionMetrics(); m.Truncations == 0 {
		t.Fatalf("no truncation with batches in flight: %+v", m)
	}
}

// TestCompactionAckTimeoutInstallsLaggard crashes a replica so it stops
// announcing checkpoints: truncation must proceed via the ack-timeout
// instead of blocking on the dead peer, and the healed replica — still
// running slots below the live base — must be caught up by a
// snapshot-install, not a decs replay.
func TestCompactionAckTimeoutInstallsLaggard(t *testing.T) {
	c := newCompactCluster(t, nil)
	defer c.stop()
	ctx := ctxSec(t, 120)

	c.net.Crash(3)
	const writes = 40
	for i := 0; i < writes; i++ {
		if _, err := c.kvs[0].Set(ctx, "key", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("write %d with p3 down: %v", i, err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.kvs[0].CompactionMetrics().SlotsFreed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ack-timeout never truncated with a dead replica")
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.net.Restart(3)
	for c.kvs[3].CompactionMetrics().InstallsReceived == 0 {
		if time.Now().After(deadline) {
			t.Fatal("healed replica never received a snapshot-install")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := c.kvs[3].Sync(ctx); err != nil {
		t.Fatalf("sync at healed replica: %v", err)
	}
	v, ok, err := c.kvs[3].Get(ctx, "key")
	if err != nil || !ok || v != fmt.Sprintf("v%d", writes-1) {
		t.Fatalf("healed read = %q/%v/%v, want v%d", v, ok, err, writes-1)
	}
}

// TestSnapshotInstallRacesConcurrentAppends heals a crashed replica while
// writers keep pipelined batches in flight: the install (which jumps the
// healed replica's prefix and truncates its stale window) must commute with
// concurrent appends on both sides, and the healed replica must converge on
// the writers' latest values.
func TestSnapshotInstallRacesConcurrentAppends(t *testing.T) {
	c := newCompactCluster(t, func(o *Options) {
		o.Batch = BatchOptions{MaxOps: 4, Window: time.Millisecond, Pipeline: 2}
	})
	defer c.stop()
	ctx := ctxSec(t, 120)

	c.net.Crash(3)
	for i := 0; i < 20; i++ {
		if _, err := c.kvs[0].Set(ctx, "warm", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("warm-up write %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.kvs[0].CompactionMetrics().SlotsFreed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ack-timeout never truncated with a dead replica")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Heal p3 with appends still streaming from two live processes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.kvs[w].Set(ctx, fmt.Sprintf("live%d", w), fmt.Sprintf("v%d", i)); err != nil {
					errs <- fmt.Errorf("live writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	c.net.Restart(3)
	for c.kvs[3].CompactionMetrics().InstallsReceived == 0 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("healed replica never received a snapshot-install under load")
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The healed replica serves the writers' final values after a barrier.
	if err := c.kvs[3].Sync(ctx); err != nil {
		t.Fatalf("sync at healed replica: %v", err)
	}
	for w := 0; w < 2; w++ {
		want, ok, err := c.kvs[0].Get(ctx, fmt.Sprintf("live%d", w))
		if err != nil || !ok {
			t.Fatalf("reference read live%d = %v/%v", w, ok, err)
		}
		got, ok, err := c.kvs[3].Get(ctx, fmt.Sprintf("live%d", w))
		if err != nil || !ok || got != want {
			t.Fatalf("healed live%d = %q/%v/%v, want %q", w, got, ok, err, want)
		}
	}
}

// liveRange returns a log endpoint's live base and first undecided slot,
// read in one loop step.
func liveRange(l *Log) (base, next int64) {
	l.n.Call(func() { base, next = l.base, l.next })
	return base, next
}

// TestPlainLogSlidesWindow: a plain Log (no Snapshotter, default cadence)
// takes 5x its window of appends from every process, plus a short tail,
// with zero errors. Once
// the cluster is quiet, every process has truncated to the same base, Get
// below it is ErrCompacted, and DecidedPrefix is identical everywhere and
// covers exactly [base, next), one command per slot.
func TestPlainLogSlidesWindow(t *testing.T) {
	c := newSMRCluster(t, false)
	defer c.stop()
	ctx := ctxSec(t, 120)
	window := c.logs[0].Capacity()

	const perProc = 10 // 4 processes x 10 = 5x the 8-slot window
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				if _, err := c.logs[p].Append(ctx, fmt.Sprintf("p%d-%d", p, i)); err != nil {
					t.Errorf("append p%d-%d: %v", p, i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if 4*perProc != 5*window {
		t.Fatalf("window %d: test wants 5x the window of appends", window)
	}
	// A few more, so the live suffix is unlikely to sit exactly on a
	// checkpoint frontier and the prefix check below has commands to
	// compare.
	for i := 0; i < 3; i++ {
		if _, err := c.logs[1].Append(ctx, fmt.Sprintf("tail-%d", i)); err != nil {
			t.Fatalf("append tail-%d: %v", i, err)
		}
	}
	total := int64(4*perProc + 3)

	// Wait for every process to decide every slot and agree on the base
	// (checkpoint announcements travel after the decisions).
	var base, next int64
	deadline := time.Now().Add(30 * time.Second)
	for {
		b0, n0 := liveRange(c.logs[0])
		same := n0 >= total
		for _, l := range c.logs[1:] {
			b, n := liveRange(l)
			same = same && b == b0 && n == n0
		}
		if same {
			base, next = b0, n0
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("processes never settled on one live range (p0 at [%d,%d))", b0, n0)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == 0 {
		t.Fatalf("base still 0 after %d appends through a %d-slot window", next, window)
	}

	var want []string
	for p, l := range c.logs {
		if _, err := l.Get(ctx, base-1); !errors.Is(err, ErrCompacted) {
			t.Fatalf("p%d Get(%d) below base %d = %v, want ErrCompacted", p, base-1, base, err)
		}
		if _, err := l.Get(ctx, 0); !errors.Is(err, ErrCompacted) {
			t.Fatalf("p%d Get(0) = %v, want ErrCompacted", p, err)
		}
		prefix, err := l.DecidedPrefix(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(prefix)) != next-base {
			t.Fatalf("p%d prefix has %d commands, want %d for [%d,%d)", p, len(prefix), next-base, base, next)
		}
		for i, cmd := range prefix {
			v, err := l.Get(ctx, base+int64(i))
			if err != nil || v != cmd {
				t.Fatalf("p%d Get(%d) = %q/%v, want prefix entry %q", p, base+int64(i), v, err, cmd)
			}
		}
		if p == 0 {
			want = prefix
			continue
		}
		for i := range want {
			if prefix[i] != want[i] {
				t.Fatalf("p%d prefix[%d] = %q, want %q", p, i, prefix[i], want[i])
			}
		}
	}
}
