package wire

import (
	"fmt"
	"sync"
	"testing"
)

// TestMarshalConcurrent exercises the encoder pool under parallel use: every
// result must own its bytes (no pooled-buffer aliasing between goroutines).
func TestMarshalConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				topic := fmt.Sprintf("t%d", g)
				payload, err := Marshal(topic, body{A: topic, B: i})
				if err != nil {
					t.Error(err)
					return
				}
				m, err := Unmarshal(payload)
				if err != nil || m.Topic != topic {
					t.Errorf("g%d i%d: corrupted payload %q (err %v)", g, i, payload, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

type benchBody struct {
	Name  string `json:"n"`
	State []byte `json:"s"`
	Clock int64  `json:"c"`
}

func benchPayload() []benchBody {
	out := make([]benchBody, 8)
	for i := range out {
		out[i] = benchBody{
			Name:  fmt.Sprintf("obj%d", i),
			State: []byte(`{"val":"payload-value","ver":{"num":12345,"proc":2}}`),
			Clock: int64(1000 + i),
		}
	}
	return out
}

// BenchmarkWireMarshal measures the JSON-body path of the cold topics.
func BenchmarkWireMarshal(b *testing.B) {
	payload := benchPayload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal("qaf/prop", payload); err != nil {
			b.Fatal(err)
		}
	}
}
