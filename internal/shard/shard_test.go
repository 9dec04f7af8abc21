package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lincheck"
	"repro/internal/quorum"
	"repro/internal/smr"
	"repro/internal/transport"
)

// openTestStore opens a sharded store of Figure-1 groups tuned for fast
// tests: pinned quorums, small log, short views, per-shard simulator seeds.
func openTestStore(t *testing.T, shards int) *Store {
	t.Helper()
	qs := quorum.Figure1()
	st, err := Open(qs.F, shards,
		WithRingSeed(7),
		WithGroupOptions(
			core.WithQuorums(qs.Reads, qs.Writes),
			core.WithSlots(48),
			core.WithViewC(5*time.Millisecond),
			core.WithTick(time.Millisecond),
		),
		WithGroupOptionsFunc(func(shard int) []core.Option {
			return []core.Option{core.WithMem(transport.WithSeed(int64(11 + shard)))}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// keysPerShard probes the ring until it has one key owned by every shard.
func keysPerShard(t *testing.T, st *Store) []string {
	t.Helper()
	out := make([]string, st.Shards())
	found := 0
	for i := 0; found < st.Shards() && i < 10000; i++ {
		k := fmt.Sprintf("key%d", i)
		if s := st.KeyShard(k); out[s] == "" {
			out[s] = k
			found++
		}
	}
	if found < st.Shards() {
		t.Fatalf("could not find a key for every shard (got %d of %d)", found, st.Shards())
	}
	return out
}

// TestShardedKVRouting checks Set/SyncGet route by key across shards, that
// reads observe writes, and that MultiGet spans shards in one call.
func TestShardedKVRouting(t *testing.T) {
	st := openTestStore(t, 2)
	kv, err := st.KV("accounts")
	if err != nil {
		t.Fatal(err)
	}
	keys := keysPerShard(t, st)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i, k := range keys {
		if _, err := kv.Set(ctx, k, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("set %q: %v", k, err)
		}
	}
	for i, k := range keys {
		v, ok, err := kv.SyncGet(ctx, k)
		if err != nil {
			t.Fatalf("syncget %q: %v", k, err)
		}
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("syncget %q = (%q,%v), want v%d", k, v, ok, i)
		}
	}
	got, err := kv.MultiGet(ctx, append([]string{"absent"}, keys...)...)
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	if len(got) != len(keys) {
		t.Fatalf("multiget returned %d keys, want %d: %v", len(got), len(keys), got)
	}
	if _, ok := got["absent"]; ok {
		t.Error("multiget invented a value for an absent key")
	}

	m := kv.Metrics()
	if m.Ops == 0 || m.Successes == 0 {
		t.Errorf("aggregated metrics empty: %+v", m)
	}
	per := kv.ShardMetrics()
	var sum uint64
	for _, sm := range per {
		sum += sm.Ops
	}
	if sum != m.Ops {
		t.Errorf("per-shard ops sum %d != aggregate %d", sum, m.Ops)
	}
	for s := range per {
		if per[s].Ops == 0 {
			t.Errorf("shard %d saw no routed operations", s)
		}
	}
}

// TestShardedLeasedReads opens the store with per-shard read leases and
// checks every shard's holder (process 0 of its own group) independently
// reaches Holding and that routed SyncGets stay correct — some served from
// lease fast paths, the rest over shared barriers.
func TestShardedLeasedReads(t *testing.T) {
	qs := quorum.Figure1()
	st, err := Open(qs.F, 2,
		WithRingSeed(7),
		WithGroupOptions(
			core.WithLease(500*time.Millisecond),
			core.WithQuorums(qs.Reads, qs.Writes),
			core.WithSlots(64),
			core.WithViewC(5*time.Millisecond),
			core.WithTick(time.Millisecond),
		),
		WithGroupOptionsFunc(func(shard int) []core.Option {
			return []core.Option{core.WithMem(transport.WithSeed(int64(11 + shard)))}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	kv, err := st.KV("leased")
	if err != nil {
		t.Fatal(err)
	}
	keys := keysPerShard(t, st)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for s := 0; s < kv.Shards(); s++ {
		lm := kv.Shard(s).LeaseManager(0)
		if lm == nil {
			t.Fatalf("shard %d has no lease manager", s)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !lm.Holding() {
			if !time.Now().Before(deadline) {
				t.Fatalf("shard %d holder never acquired its lease", s)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			want := fmt.Sprintf("r%d-v%d", round, i)
			if _, err := kv.Set(ctx, k, want); err != nil {
				t.Fatalf("set %q: %v", k, err)
			}
			v, ok, err := kv.SyncGet(ctx, k)
			if err != nil || !ok || v != want {
				t.Fatalf("syncget %q = %q/%v/%v, want %q", k, v, ok, err, want)
			}
		}
	}
	var local uint64
	for s := 0; s < kv.Shards(); s++ {
		local += kv.Shard(s).LeaseManager(0).Metrics().LocalReads
	}
	if local == 0 {
		t.Fatal("no routed read took any shard's lease fast path")
	}
}

// TestShardedFaultIsolation injects the paper's f1 into shard 0 only and
// checks both key ranges keep completing operations: shard 0 because
// HealthyUf confines its routing to U_f1, the other shards because their
// groups are untouched.
func TestShardedFaultIsolation(t *testing.T) {
	st := openTestStore(t, 2)
	kv, err := st.KV("accounts")
	if err != nil {
		t.Fatal(err)
	}
	kv.SetPolicy(core.HealthyUf())
	keys := keysPerShard(t, st)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	f1 := quorum.Figure1().F.Patterns[0]
	if err := st.InjectPattern(0, f1); err != nil {
		t.Fatal(err)
	}
	g0, _ := st.Group(0)
	g1, _ := st.Group(1)
	if _, ok := g0.Pattern(); !ok {
		t.Fatal("pattern not recorded on shard 0")
	}
	if _, ok := g1.Pattern(); ok {
		t.Fatal("pattern leaked into shard 1")
	}

	for round := 0; round < 3; round++ {
		for i, k := range keys {
			val := fmt.Sprintf("r%d-v%d", round, i)
			if _, err := kv.Set(ctx, k, val); err != nil {
				t.Fatalf("round %d set %q (shard %d): %v", round, k, st.KeyShard(k), err)
			}
			v, ok, err := kv.SyncGet(ctx, k)
			if err != nil || !ok || v != val {
				t.Fatalf("round %d syncget %q = (%q,%v,%v), want %q", round, k, v, ok, err, val)
			}
		}
	}
}

// TestShardedLincheck runs concurrent clients against a 2-shard store and
// checks per-key linearizability of the recorded history — the check that
// remains sound under sharding because every key executes in one group.
func TestShardedLincheck(t *testing.T) {
	st := openTestStore(t, 2)
	kv, err := st.KV("lin")
	if err != nil {
		t.Fatal(err)
	}
	keys := keysPerShard(t, st)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	h := lincheck.NewHistory()
	const clients, opsPer = 3, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; op < opsPer; op++ {
				k := keys[(c+op)%len(keys)]
				if (c+op)%2 == 0 {
					val := fmt.Sprintf("c%d-%d", c, op)
					id := h.BeginKV(c, lincheck.KindWrite, k, val)
					if _, err := kv.Set(ctx, k, val); err != nil {
						h.Discard(id)
						t.Errorf("client %d set: %v", c, err)
						return
					}
					h.End(id, "", 0, 0)
				} else {
					id := h.BeginKV(c, lincheck.KindRead, k, "")
					v, _, err := kv.SyncGet(ctx, k)
					if err != nil {
						h.Discard(id)
						t.Errorf("client %d syncget: %v", c, err)
						return
					}
					h.End(id, v, 0, 0)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := lincheck.CheckKVHistory(h.Ops()); err != nil {
		t.Fatalf("sharded history not linearizable per key: %v", err)
	}
}

// TestStoreLifecycle covers argument validation, close idempotence and
// use-after-close.
func TestStoreLifecycle(t *testing.T) {
	if _, err := Open(quorum.Figure1().F, 0); err == nil {
		t.Error("0 shards accepted")
	}
	st := openTestStore(t, 2)
	if _, err := st.Group(-1); err == nil {
		t.Error("negative shard index accepted")
	}
	if _, err := st.Group(2); err == nil {
		t.Error("out-of-range shard index accepted")
	}
	if inj := st.Injector(5); inj != nil {
		t.Error("out-of-range injector not nil")
	}
	if err := st.InjectPattern(7, quorum.Figure1().F.Patterns[0]); err == nil {
		t.Error("out-of-range InjectPattern accepted")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := st.KV("late"); err == nil {
		t.Error("KV after Close accepted")
	}
}

// TestShardedStoreStats checks mem-transport message counters aggregate
// across shard groups.
func TestShardedStoreStats(t *testing.T) {
	st := openTestStore(t, 2)
	kv, err := st.KV("s")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keys := keysPerShard(t, st)
	for _, k := range keys {
		if _, err := kv.Set(ctx, k, "x"); err != nil {
			t.Fatal(err)
		}
	}
	stats, ok := st.Stats()
	if !ok || stats.Sent == 0 {
		t.Errorf("aggregated stats missing: ok=%v %+v", ok, stats)
	}
}

// TestShardedSetMany covers the cross-shard batched write path: one call
// groups pairs by owning shard, commits each group through that shard's
// group commits, and reports per-pair slots in input order.
func TestShardedSetMany(t *testing.T) {
	qs := quorum.Figure1()
	st, err := Open(qs.F, 2,
		WithRingSeed(7),
		WithGroupOptions(
			core.WithQuorums(qs.Reads, qs.Writes),
			core.WithSlots(48),
			core.WithViewC(5*time.Millisecond),
			core.WithTick(time.Millisecond),
			core.WithBatch(2*time.Millisecond, 8),
		),
		WithGroupOptionsFunc(func(shard int) []core.Option {
			return []core.Option{core.WithMem(transport.WithSeed(int64(11 + shard)))}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	kv, err := st.KV("many")
	if err != nil {
		t.Fatal(err)
	}
	keys := keysPerShard(t, st)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	pairs := []smr.KVPair{
		{Key: keys[0], Val: "a0"},
		{Key: keys[1], Val: "b0"},
		{Key: keys[0], Val: "a1"},
		{Key: keys[1], Val: "b1"},
	}
	slots, err := kv.SetMany(ctx, pairs)
	if err != nil {
		t.Fatalf("setmany: %v", err)
	}
	if len(slots) != len(pairs) {
		t.Fatalf("got %d slots for %d pairs", len(slots), len(pairs))
	}
	for i, want := range map[string]string{keys[0]: "a1", keys[1]: "b1"} {
		v, ok, err := kv.SyncGet(ctx, i)
		if err != nil || !ok || v != want {
			t.Fatalf("syncget %q = %q/%v/%v, want %q", i, v, ok, err, want)
		}
	}
	// Async set routes by key like Set.
	res := <-kv.SetAsync(ctx, keys[1], "b2")
	if res.Err != nil {
		t.Fatalf("setasync: %v", res.Err)
	}
	v, ok, err := kv.SyncGet(ctx, keys[1])
	if err != nil || !ok || v != "b2" {
		t.Fatalf("syncget after setasync = %q/%v/%v", v, ok, err)
	}
	if _, err := kv.SetMany(ctx, nil); err != nil {
		t.Fatalf("empty setmany: %v", err)
	}
}
