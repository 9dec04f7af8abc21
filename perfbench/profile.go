package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layers are the repository modules a CPU sample can be charged to.
var layers = []string{"transport", "wire", "node", "consensus", "viewsync", "smr", "lease", "core", "shard", "qaf", "register"}

// gcFrames root the runtime's garbage-collection work on a stack.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcMarkTermination": true,
}

// cpuShares reads CPU profiles with the local `go tool pprof -traces` and
// charges each sample to the innermost repro/internal/* frame on its stack.
// Besides one share per layer it returns "json" (samples with an
// encoding/json frame), "gc" (samples under the collector) and "bench"
// (samples of the benchmark's own code that reach no layer).
func cpuShares(paths []string) (map[string]float64, error) {
	shares := make(map[string]float64)
	var total float64
	for _, path := range paths {
		out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
		}
		total += chargeTraces(out, shares)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// chargeTraces adds the sample weights in the text of `go tool pprof
// -traces` to shares and returns their total weight.
func chargeTraces(out []byte, shares map[string]float64) float64 {
	var total float64
	var stack []string
	var weight float64
	flush := func() {
		if len(stack) == 0 {
			return
		}
		total += weight
		charged, json, gc, bench := "", false, false, false
		for _, fn := range stack {
			switch {
			case charged == "" && strings.HasPrefix(fn, "repro/internal/"):
				pkg := strings.TrimPrefix(fn, "repro/internal/")
				if i := strings.IndexAny(pkg, "./"); i >= 0 {
					pkg = pkg[:i]
				}
				charged = pkg
			case strings.HasPrefix(fn, "encoding/json."):
				json = true
			case gcFrames[fn]:
				gc = true
			case strings.HasPrefix(fn, "main."):
				bench = true
			}
		}
		if charged != "" {
			shares[charged] += weight
		} else if bench && !gc {
			shares["bench"] += weight
		}
		if json {
			shares["json"] += weight
		}
		if gc {
			shares["gc"] += weight
		}
		stack, weight = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if len(stack) == 0 {
			// A trace's first line carries its weight, then its leaf frame.
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue
			}
			weight = float64(d)
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	return total
}
