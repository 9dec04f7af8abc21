package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// window collects what one measured window saw. An operation belongs to the
// window when it was due (open loop) or issued (closed loop) inside it; the
// run waits for every such operation to finish.
type window struct {
	from, to time.Time
	timeout  time.Duration

	mu            sync.Mutex
	reads, writes []float64 // latencies, ms; a failed op counts as missing every limit
	attempted     int
	failed        int
	perSec        []int     // successful ops by the second they were due in
	lags          []float64 // open loop: how late each op was issued, ms

	cpuFrom, cpuTo time.Duration
	heapPeak       uint64
	stopHeap       chan struct{}
	heapDone       chan struct{}
}

func newWindow(from time.Time, length, timeout time.Duration) *window {
	return &window{
		from: from, to: from.Add(length), timeout: timeout,
		perSec: make([]int, int(math.Ceil(length.Seconds()))),
	}
}

func (m *window) contains(t time.Time) bool { return !t.Before(m.from) && t.Before(m.to) }

// record books one finished operation that was due at due and ended at end.
func (m *window) record(read bool, due, end time.Time, failed bool) {
	if !m.contains(due) {
		return
	}
	lat := end.Sub(due)
	if failed && lat < m.timeout {
		lat = m.timeout
	}
	ms := float64(lat) / float64(time.Millisecond)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if failed {
		m.failed++
	} else {
		m.perSec[int(due.Sub(m.from)/time.Second)]++
	}
	if read {
		m.reads = append(m.reads, ms)
	} else {
		m.writes = append(m.writes, ms)
	}
}

// lag books how late the open-loop generator issued an op due at due.
func (m *window) lag(due, issued time.Time) {
	if !m.contains(due) {
		return
	}
	m.mu.Lock()
	m.lags = append(m.lags, float64(issued.Sub(due))/float64(time.Millisecond))
	m.mu.Unlock()
}

// waitOpen blocks until the window opens, then starts the process CPU and
// heap sampling that closeWindow stops.
func (m *window) waitOpen() {
	time.Sleep(time.Until(m.from))
	m.cpuFrom = processCPU()
	m.stopHeap = make(chan struct{})
	m.heapDone = make(chan struct{})
	go m.sampleHeap()
}

// waitClose blocks until the window closes and stops the sampling.
func (m *window) waitClose() {
	time.Sleep(time.Until(m.to))
	m.cpuTo = processCPU()
	close(m.stopHeap)
	<-m.heapDone
}

// sampleHeap keeps the peak of the heap's object bytes, read every 20ms.
func (m *window) sampleHeap() {
	defer close(m.heapDone)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > m.heapPeak {
			m.heapPeak = v
		}
		select {
		case <-m.stopHeap:
			return
		case <-t.C:
		}
	}
}

func (m *window) seconds() float64 { return m.to.Sub(m.from).Seconds() }

func (m *window) committed() int { return m.attempted - m.failed }

func (m *window) opsPerSec() float64 { return float64(m.committed()) / m.seconds() }

// cpuPerOp is the process's user+system CPU over the window per committed op.
func (m *window) cpuPerOp() float64 {
	return float64(m.cpuTo-m.cpuFrom) / float64(time.Microsecond) / float64(max(m.committed(), 1))
}

// processCPU returns the user+system CPU time this process has used.
// Getrusage fails only on a bad argument, so an error reads as zero.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs (sorted in place) by the nearest-rank
// rule; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
