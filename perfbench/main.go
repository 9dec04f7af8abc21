// Command perfbench is the repository benchmark. It drives the Figure-1
// generalized quorum system through the public functions of its layers
// under one named workload, checks that the workload's outputs are correct,
// and prints the end-to-end metrics; with --trace 1 it then runs the
// workload again with tracing on and prints the per-layer metrics instead.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"ops_s": {"value": 1.2, "unit": "1/s"}, ...}}
//
// Run it from the repository root through the script that builds it:
//
//	bash perfbench/run.sh --workload kv-write-cpu --seed 1 --seconds 15 --trace 0
//
// It exits non-zero when a correctness check fails or the run cannot start.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/smr"
)

// setupRepeats is how many times a run sets a deployment up; setup_s is the
// median.
const setupRepeats = 5

// checkTimeout bounds quiescing and the final-state reads.
const checkTimeout = 60 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// deployment is one opened cluster under a workload.
type deployment interface {
	// drive starts the workload's clients on wg; they stop issuing when the
	// window closes and return once their operations have finished.
	drive(m *window, spans *spanLog, wg *sync.WaitGroup)
	// check verifies the outputs once every operation has finished.
	check(ctx context.Context) error
	layerStats() layerStats
	windowCounts() windowCounts
	close()
}

// layerStats are counters the layers keep themselves.
type layerStats struct {
	failovers  uint64
	shardOps   []uint64
	compaction smr.CompactionMetrics
}

// windowCounts are counts the deployment books for the measured window.
type windowCounts struct {
	ackedWrites, batches     int
	localReads, barrierReads int
}

func open(w *workload, seed int64, nt *netTracer) (deployment, error) {
	if w.kv {
		d, err := openKV(w, seed, nt)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	d, err := openRegisters(w, seed, nt)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// phase is one measured window and what was read around it.
type phase struct {
	m             *window
	before, after layerStats
	net0, net1    netCounters
	mem0, mem1    runtime.MemStats
	counts        windowCounts
	checkErr      error
}

// tracer is the traced run's instrumentation, shared by its sub-runs: the
// network counters, the spans, and one CPU profile per window under dir.
type tracer struct {
	nt       *netTracer
	spans    *spanLog
	dir      string
	profiles []string
}

// measure runs one window on d. Traced (tr set), it also reads the network
// counters and memory statistics at the window's edges and profiles the
// window's CPU.
func measure(d deployment, w *workload, length time.Duration, tr *tracer) (*phase, error) {
	p := &phase{m: newWindow(time.Now().Add(w.warmup), length, w.timeout)}
	var spans *spanLog
	if tr != nil {
		spans = tr.spans
	}
	var wg sync.WaitGroup
	d.drive(p.m, spans, &wg)
	p.m.waitOpen()
	p.before = d.layerStats()
	var prof *os.File
	if tr != nil {
		p.net0 = tr.nt.snapshot()
		runtime.ReadMemStats(&p.mem0)
		path := filepath.Join(tr.dir, fmt.Sprintf("%s.%d.cpu.pprof", w.name, len(tr.profiles)))
		tr.profiles = append(tr.profiles, path)
		var err error
		if prof, err = os.Create(path); err == nil {
			if err = pprof.StartCPUProfile(prof); err != nil {
				prof.Close()
			}
		}
		if err != nil {
			wg.Wait()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	p.m.waitClose()
	p.after = d.layerStats()
	if tr != nil {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&p.mem1)
		p.net1 = tr.nt.snapshot()
		if err := prof.Close(); err != nil {
			wg.Wait()
			return nil, fmt.Errorf("write CPU profile: %w", err)
		}
	}
	wg.Wait()
	p.counts = d.windowCounts()
	ctx, cancel := context.WithTimeout(context.Background(), checkTimeout)
	defer cancel()
	p.checkErr = d.check(ctx)
	return p, nil
}

// subRuns runs the workload's sub-runs, each on a fresh deployment opened
// from its own seed, and times every set-up up to the first successful op.
// Untraced, workloads with fewer sub-runs than setupRepeats set up (and
// close) extra deployments first. It returns the median set-up time in
// seconds.
func subRuns(w *workload, seed int64, length time.Duration, tr *tracer) (float64, []*phase, error) {
	var setups []float64
	var phases []*phase
	first := min(0, w.subRuns-setupRepeats)
	var nt *netTracer
	if tr != nil {
		first, nt = 0, tr.nt
	}
	for i := first; i < w.subRuns; i++ {
		runtime.GC() // each set-up starts without the last one's garbage
		t0 := time.Now()
		d, err := open(w, subSeed(w, seed, max(i, 0)), nt)
		if err != nil {
			return 0, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < 0 {
			d.close()
			continue
		}
		p, err := measure(d, w, length/time.Duration(w.subRuns), tr)
		d.close()
		if err != nil {
			return 0, nil, err
		}
		phases = append(phases, p)
	}
	return median(setups), phases, nil
}

// subSeed is the seed of sub-run i: distinct for every (seed, i).
func subSeed(w *workload, seed int64, i int) int64 { return seed*int64(w.subRuns) + int64(i) }

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv-write-cpu, kv-mixed-1ms or register-f1")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs and simulated delays")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the workload untraced, then traced, and prints per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's CPU profile and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (kv-write-cpu, kv-mixed-1ms or register-f1), --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	length := time.Duration(*seconds) * time.Second

	setupS, subs, err := subRuns(w, *seed, length, nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: true}
	fmt.Fprintf(stdout, "perfbench %s seed=%d window=%ds trace=%d\n", w.name, *seed, *seconds, *trace)
	for i, p := range subs {
		report(stdout, fmt.Sprintf("untraced %d/%d", i+1, len(subs)), p)
		res.Correct = res.Correct && p.checkErr == nil
		res.Attempted += p.m.attempted
		res.Failed += p.m.failed
	}

	e2e := endToEnd(subs, setupS)
	fmt.Fprintf(stdout, "medians over %d sub-runs, recorded but not gated: write_p99_ms=%.3f read_p99_ms=%.3f\n",
		len(subs), e2e["write_p99_ms"], e2e["read_p99_ms"])

	var values map[string]float64
	var defs []metricDef
	if *trace == 0 {
		values, defs = e2e, endToEndMetrics
	} else {
		tr, traced, err := tracedRun(w, *seed, length, *out)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		for i, p := range traced {
			report(stdout, fmt.Sprintf("traced %d/%d", i+1, len(traced)), p)
			res.Correct = res.Correct && p.checkErr == nil
			res.Attempted += p.m.attempted
			res.Failed += p.m.failed
		}
		if values, err = perLayer(subs, e2e, traced, tr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defs = perLayerMetrics
	}
	res.Metrics = make(map[string]metricOut, len(defs))
	for _, def := range defs {
		v := values[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[def.name] = metricOut{Value: v, Unit: def.unit}
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", def.name, v, def.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRun runs the workload's sub-runs again with tracing on, then writes
// the spans and reads the CPU shares out of the profiles.
func tracedRun(w *workload, seed int64, length time.Duration, dir string) (*tracer, []*phase, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	tr := &tracer{nt: newNetTracer(), spans: &spanLog{}, dir: dir}
	_, phases, err := subRuns(w, seed, length, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.spans.write(filepath.Join(dir, w.name+".spans.jsonl")); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	return tr, phases, nil
}

// report prints a phase's human-readable summary: sample counts beside the
// percentiles, the failure count and the per-second throughput series.
func report(w io.Writer, label string, p *phase) {
	m := p.m
	fmt.Fprintf(w, "[%s] attempted=%d failed=%d committed=%d ops_s=%.1f cpu_us_per_op=%.2f heap_peak_mb=%.1f\n",
		label, m.attempted, m.failed, m.committed(), m.opsPerSec(), m.cpuPerOp(), float64(m.heapPeak)/1e6)
	fmt.Fprintf(w, "[%s] writes n=%d p50=%.3fms p99=%.3fms; reads n=%d p50=%.3fms p99=%.3fms\n", label,
		len(m.writes), quantile(m.writes, 0.5), quantile(m.writes, 0.99),
		len(m.reads), quantile(m.reads, 0.5), quantile(m.reads, 0.99))
	if len(m.lags) > 0 {
		fmt.Fprintf(w, "[%s] generator lag n=%d p50=%.3fms p99=%.3fms\n", label, len(m.lags), quantile(m.lags, 0.5), quantile(m.lags, 0.99))
	}
	fmt.Fprintf(w, "[%s] ops per second:", label)
	for _, n := range m.perSec {
		fmt.Fprintf(w, " %d", n)
	}
	fmt.Fprintln(w)
	if p.checkErr != nil {
		fmt.Fprintf(w, "[%s] CHECK FAILED: %v\n", label, p.checkErr)
	}
}
