package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
)

// kvDeployment is a sharded KV store under one of the KV workloads.
type kvDeployment struct {
	w    *workload
	seed int64
	st   *shard.Store
	kv   *shard.KV
	keys []string
	nets []*tracedNet // the traced run's networks, closed after the store
	hist *kvHistory
	ops  atomic.Int64

	// Batching and read paths of the measured window.
	mu           sync.Mutex
	ackedWrites  int
	batchSlots   map[[2]int64]struct{}
	localReads   int
	barrierReads int
}

func openKV(w *workload, seed int64, nt *netTracer) (*kvDeployment, error) {
	d := &kvDeployment{w: w, seed: seed, hist: newKVHistory(w.objects), batchSlots: make(map[[2]int64]struct{})}
	st, err := shard.Open(failure.Figure1(), w.shards,
		shard.WithRingSeed(uint64(seed)),
		shard.WithGroupOptionsFunc(func(g int) []core.Option {
			opts, mem := clusterOptions(w, seed, g)
			if nt == nil {
				return append(opts, core.WithMem(mem...))
			}
			n := nt.wrap(transport.NewMem(failure.Figure1N, mem...))
			d.nets = append(d.nets, n)
			return append(opts, core.WithNetwork(n))
		}))
	if err != nil {
		d.closeNets()
		return nil, err
	}
	d.st = st
	if d.kv, err = st.KV("bench"); err != nil {
		d.close()
		return nil, err
	}
	for k := 0; k < w.objects; k++ {
		d.keys = append(d.keys, fmt.Sprintf("k%04d", k))
	}
	ctx, cancel := context.WithTimeout(context.Background(), w.timeout)
	defer cancel()
	if res := d.write(ctx, 0, nil); res.Err != nil {
		d.close()
		return nil, fmt.Errorf("first write: %w", res.Err)
	}
	return d, nil
}

func (d *kvDeployment) closeNets() {
	for _, n := range d.nets {
		n.Close()
	}
}

func (d *kvDeployment) close() {
	d.st.Close()
	d.closeNets()
}

func (d *kvDeployment) picker(rng *rand.Rand) func() int {
	if d.w.zipf {
		z := rand.NewZipf(rng, 1.1, 1, uint64(d.w.objects-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(d.w.objects) }
}

// drive starts the workload's clients on wg. Closed-loop clients issue until
// the window closes; the open-loop generator issues every op due before it.
func (d *kvDeployment) drive(m *window, spans *spanLog, wg *sync.WaitGroup) {
	start := m.from.Add(-d.w.warmup)
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.closedLoop(rand.New(rand.NewSource(d.seed*7919+int64(c))), d.w.inflight, false, m, spans)
		}(c)
	}
	for p := 0; p < d.w.probes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			d.closedLoop(rand.New(rand.NewSource(d.seed*7919-int64(p)-1)), 1, true, m, spans)
		}(p)
	}
	if d.w.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.openLoop(start, m, spans)
		}()
	}
}

// closedLoop keeps up to inflight operations outstanding until the window
// closes, then waits for them.
func (d *kvDeployment) closedLoop(rng *rand.Rand, inflight int, reads bool, m *window, spans *spanLog) {
	pick := d.picker(rng)
	sem := make(chan struct{}, inflight)
	for {
		sem <- struct{}{}
		now := time.Now()
		if !now.Before(m.to) {
			break
		}
		key := pick()
		go func() {
			defer func() { <-sem }()
			d.do(key, reads, now, m, spans)
		}()
	}
	for i := 1; i < inflight; i++ {
		sem <- struct{}{}
	}
}

// openLoop issues operations at Poisson arrival times drawn from the seed;
// each is timed from when it was due, not from when it was issued.
func (d *kvDeployment) openLoop(start time.Time, m *window, spans *spanLog) {
	rng := rand.New(rand.NewSource(d.seed))
	pick := d.picker(rng)
	var wg sync.WaitGroup
	due := start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / d.w.rate * float64(time.Second)))
		if !due.Before(m.to) {
			break
		}
		key, read := pick(), rng.Float64() < d.w.readFrac
		time.Sleep(time.Until(due))
		m.lag(due, time.Now())
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			d.do(key, read, due, m, spans)
		}(due)
	}
	wg.Wait()
}

func (d *kvDeployment) do(key int, read bool, due time.Time, m *window, spans *spanLog) {
	ctx, cancel := context.WithTimeout(context.Background(), d.w.timeout)
	defer cancel()
	op := d.ops.Add(1)
	o := spans.begin(due)
	var failed bool
	if read {
		failed = d.read(ctx, op, key, o, m.contains(due)) != nil
	} else {
		res := d.write(ctx, key, o)
		failed = res.Err != nil
		if !failed && m.contains(due) {
			d.mu.Lock()
			d.ackedWrites++
			d.batchSlots[[2]int64{int64(d.kv.KeyShard(d.keys[key])), res.Slot}] = struct{}{}
			d.mu.Unlock()
		}
	}
	end := time.Now()
	spans.end(o, end)
	m.record(read, due, end, failed)
}

func (d *kvDeployment) write(ctx context.Context, key int, o *opSpans) smr.SetResult {
	val := d.hist.newWrite(key)
	var ch <-chan smr.SetResult
	o.call("shard.KV.SetAsync", func() { ch = d.kv.SetAsync(ctx, d.keys[key], val) })
	res := <-ch
	d.hist.ack(key, val, res)
	return res
}

// read is a routed linearizable read (shard.KV.SyncGet). Traced, it makes
// the same calls itself, one span each: the lease holder's leased read, else
// a shared read barrier and a read from the decided prefix at one process
// (the holder with a lease, else the op's turn in a round robin).
func (d *kvDeployment) read(ctx context.Context, op int64, key int, o *opSpans, inWindow bool) error {
	invoke := time.Now()
	var (
		val    string
		found  bool
		served bool
		err    error
	)
	if o == nil {
		val, found, err = d.kv.SyncGet(ctx, d.keys[key])
	} else {
		c := d.kv.Shard(d.kv.KeyShard(d.keys[key]))
		p := failure.Proc(op % failure.Figure1N)
		if d.w.lease > 0 {
			p = 0
			o.call("lease.Manager.Read", func() { val, found, served, err = c.LeaseManager(p).Read(ctx, d.keys[key]) })
		}
		if !served || err != nil {
			o.call("lease.Barrier.Sync", func() { err = c.ReadBarrier(p).Sync(ctx) })
			if err == nil {
				o.call("smr.KV.Get", func() { val, found, err = c.At(p).Get(ctx, d.keys[key]) })
			}
		}
		if inWindow && err == nil {
			d.mu.Lock()
			if served {
				d.localReads++
			} else {
				d.barrierReads++
			}
			d.mu.Unlock()
		}
	}
	if err == nil {
		d.hist.read(key, invoke, val, found)
	}
	return err
}

// check quiesces the store and checks its final state: a barrier at every
// process, then every key read at every process.
func (d *kvDeployment) check(ctx context.Context) error {
	if err := d.hist.readErr(); err != nil {
		return err
	}
	for s := 0; s < d.kv.Shards(); s++ {
		for p := 0; p < failure.Figure1N; p++ {
			if err := d.kv.Shard(s).At(failure.Proc(p)).Sync(ctx); err != nil {
				return fmt.Errorf("quiesce shard %d process %d: %w", s, p, err)
			}
		}
	}
	vals := make([]string, failure.Figure1N)
	found := make([]bool, failure.Figure1N)
	for k, key := range d.keys {
		c := d.kv.Shard(d.kv.KeyShard(key))
		for p := range vals {
			var err error
			if vals[p], found[p], err = c.At(failure.Proc(p)).Get(ctx, key); err != nil {
				return fmt.Errorf("final read of %s at process %d: %w", key, p, err)
			}
		}
		if err := d.hist.checkFinal(k, vals, found); err != nil {
			return err
		}
	}
	return nil
}

// layerStats are the store's own counters, read at window open and close.
func (d *kvDeployment) layerStats() layerStats {
	var s layerStats
	for _, m := range d.kv.ShardMetrics() {
		s.failovers += m.Failovers
		s.shardOps = append(s.shardOps, m.Ops)
	}
	s.compaction = d.kv.CompactionMetrics()
	return s
}

func (d *kvDeployment) windowCounts() windowCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return windowCounts{ackedWrites: d.ackedWrites, batches: len(d.batchSlots), localReads: d.localReads, barrierReads: d.barrierReads}
}
