package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/lincheck"
	"repro/internal/register"
	"repro/internal/transport"
)

// regDeployment is a cluster of the paper's MWMR registers.
type regDeployment struct {
	w    *workload
	seed int64
	cl   *core.Cluster
	net  *tracedNet // the traced run's network, closed after the cluster
	regs []*core.RegisterClient
	hist []*lincheck.History
}

// setupClient is the history process id of the set-up operation.
const setupClient = -1

func openRegisters(w *workload, seed int64, nt *netTracer) (*regDeployment, error) {
	d := &regDeployment{w: w, seed: seed}
	opts, mem := clusterOptions(w, seed, 0)
	if nt == nil {
		opts = append(opts, core.WithMem(mem...))
	} else {
		d.net = nt.wrap(transport.NewMem(failure.Figure1N, mem...))
		opts = append(opts, core.WithNetwork(d.net))
	}
	cl, err := core.Open(failure.Figure1(), opts...)
	if err != nil {
		if d.net != nil {
			d.net.Close()
		}
		return nil, err
	}
	d.cl = cl
	for i := 0; i < w.objects; i++ {
		rc, err := cl.Register("r" + strconv.Itoa(i))
		if err != nil {
			d.close()
			return nil, err
		}
		d.regs = append(d.regs, rc)
		d.hist = append(d.hist, lincheck.NewHistory())
	}
	if w.pattern > 0 {
		if err := cl.InjectPattern(failure.Figure1().Patterns[w.pattern-1]); err != nil {
			d.close()
			return nil, err
		}
		for _, rc := range d.regs {
			rc.SetPolicy(core.HealthyUf())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), w.timeout)
	defer cancel()
	if err := d.op(ctx, setupClient, 0, false, 0, nil); err != nil {
		d.close()
		return nil, fmt.Errorf("first write: %w", err)
	}
	return d, nil
}

func (d *regDeployment) close() {
	d.cl.Close()
	if d.net != nil {
		d.net.Close()
	}
}

// drive starts the closed-loop clients on wg; each issues one operation at
// a time until the window closes.
func (d *regDeployment) drive(m *window, spans *spanLog, wg *sync.WaitGroup) {
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.seed*7919 + int64(c)))
			for seq := 0; ; seq++ {
				due := time.Now()
				if !due.Before(m.to) {
					return
				}
				reg, read := rng.Intn(d.w.objects), rng.Float64() < d.w.readFrac
				ctx, cancel := context.WithTimeout(context.Background(), d.w.timeout)
				o := spans.begin(due)
				err := d.op(ctx, c, reg, read, seq, o)
				cancel()
				end := time.Now()
				spans.end(o, end)
				m.record(read, due, end, err != nil)
			}
		}(c)
	}
}

// op reads or writes register reg through its routed client and books the
// operation, with its version tag, in the register's history.
func (d *regDeployment) op(ctx context.Context, client, reg int, read bool, seq int, o *opSpans) error {
	rc, h := d.regs[reg], d.hist[reg]
	var (
		val string
		ver register.Version
		err error
	)
	if read {
		id := h.Begin(client, lincheck.KindRead, "")
		o.call("core.RegisterClient.Read", func() { val, ver, err = rc.Read(ctx) })
		if err != nil {
			h.Discard(id)
			return err
		}
		h.End(id, val, ver.Num, ver.Proc)
		return nil
	}
	val = strconv.Itoa(client) + "." + strconv.Itoa(seq)
	id := h.Begin(client, lincheck.KindWrite, val)
	o.call("core.RegisterClient.Write", func() { ver, err = rc.Write(ctx, val) })
	if err != nil {
		// A write that timed out has no version tag to check; a read that
		// later returns its value then fails the check.
		h.Discard(id)
		return err
	}
	h.End(id, "", ver.Num, ver.Proc)
	return nil
}

func (d *regDeployment) check(context.Context) error { return checkRegisters(d.hist) }

func (d *regDeployment) layerStats() layerStats {
	var s layerStats
	var ops uint64
	for _, rc := range d.regs {
		m := rc.Metrics()
		s.failovers += m.Failovers
		ops += m.Ops
	}
	s.shardOps = []uint64{ops}
	return s
}

func (d *regDeployment) windowCounts() windowCounts { return windowCounts{} }
