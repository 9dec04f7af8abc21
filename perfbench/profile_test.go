package main

import (
	"math"
	"testing"
	"time"
)

const sampleTraces = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   encoding/json.(*decodeState).object
             encoding/json.Unmarshal
             repro/internal/wire.Unmarshal
             repro/internal/node.(*Node).onMessage.func1
             repro/internal/node.(*Node).loop
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   sync/atomic.(*Pointer[go.shape.struct { x int }]).Load
             repro/internal/smr.(*Log).Append
             main.(*kvDeployment).write
-----------+-------------------------------------------------------
      40ms   runtime.mallocgc
             main.(*kvDeployment).do
-----------+-------------------------------------------------------
`

func TestChargeTraces(t *testing.T) {
	got := make(map[string]float64)
	total := chargeTraces([]byte(sampleTraces), got)
	if total != float64(100*time.Millisecond) {
		t.Fatalf("total weight %v, want 100ms", time.Duration(total))
	}
	want := map[string]float64{"wire": 0.3, "json": 0.3, "gc": 0.2, "smr": 0.1, "bench": 0.4}
	for k, w := range want {
		if math.Abs(got[k]/total-w) > 1e-9 {
			t.Errorf("%s share = %v, want %v (all: %v)", k, got[k], w, got)
		}
	}
	if got["node"] != 0 {
		t.Errorf("node charged %v; a sample goes to its innermost layer only", got["node"])
	}
}
