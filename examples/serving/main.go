// Serving: run the likelihood daemon in-process and drive it as a client —
// submit an alignment, fire concurrent identical evaluates (and watch them
// coalesce onto one kernel run), start an analysis, stream its progress
// over SSE, then drain. The same traffic works against a standalone daemon
// started with `plkd`; see README.md next to this file for the curl
// version of this walkthrough.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"phylo"
	"phylo/internal/server"
)

func main() {
	// 1. Stand up the daemon in-process: 2 worker threads, a 256 MiB
	// dataset cache, 4 in-flight work items per tenant.
	srv := server.New(server.Config{
		Threads:        2,
		CacheBytes:     256 << 20,
		TenantInflight: 4,
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	base := hs.URL
	fmt.Println("daemon listening at", base)

	// 2. Submit an alignment. The handle is a digest: resubmitting the same
	// alignment is a cache hit, and the response prices the dataset's
	// memory footprint — what it costs the cache to keep resident.
	al, err := phylo.SimulateGrid(12, 2000, 1000, 0.5, 42)
	if err != nil {
		log.Fatal(err)
	}
	var phy bytes.Buffer
	if err := al.WritePhylip(&phy); err != nil {
		log.Fatal(err)
	}
	var ds struct {
		ID          string `json:"id"`
		Patterns    int    `json:"patterns"`
		MemoryBytes int64  `json:"memory_bytes"`
		Cached      bool   `json:"cached"`
	}
	postJSON(base+"/v1/datasets", map[string]any{"phylip": phy.String()}, &ds)
	fmt.Printf("dataset %s: %d patterns, %.2f MiB resident\n",
		ds.ID, ds.Patterns, float64(ds.MemoryBytes)/(1<<20))

	// 3. Concurrent identical evaluates coalesce: one kernel run, shared
	// bit-identical answer. Different trees/seeds would each run fresh.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ev struct {
				LnL       float64 `json:"lnl"`
				LnLBits   string  `json:"lnl_bits"`
				Coalesced bool    `json:"coalesced"`
			}
			postJSON(base+"/v1/evaluate", map[string]any{"dataset": ds.ID, "seed": 7}, &ev)
			fmt.Printf("evaluate: lnL %.4f (bits %s, coalesced=%v)\n", ev.LnL, ev.LnLBits, ev.Coalesced)
		}()
	}
	wg.Wait()
	fmt.Printf("kernel executions so far: %v\n", metric(srv, "plk_kernel_runs_total"))

	// 4. Start a model-optimization analysis and stream its progress.
	var an struct {
		ID string `json:"id"`
	}
	postJSON(base+"/v1/analyses", map[string]any{"dataset": ds.ID, "mode": "modelopt", "seed": 7}, &an)
	resp, err := http.Get(base + "/v1/analyses/" + an.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			switch event {
			case "progress":
				var e struct {
					Seq int64 `json:"seq"`
					Ev  struct {
						Round int     `json:"Round"`
						LnL   float64 `json:"LnL"`
					} `json:"event"`
				}
				json.Unmarshal([]byte(data), &e)
				fmt.Printf("  round %d: lnL %.4f\n", e.Ev.Round, e.Ev.LnL)
			case "done":
				var st struct {
					State string  `json:"state"`
					LnL   float64 `json:"lnl"`
				}
				json.Unmarshal([]byte(data), &st)
				fmt.Printf("analysis %s: %s, final lnL %.4f\n", an.ID, st.State, st.LnL)
			}
		}
		if event == "done" && strings.HasPrefix(line, "data: ") {
			break
		}
	}
	resp.Body.Close()

	// 5. Drain: in-flight work finishes, new work gets 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatal("drain:", err)
	}
	fmt.Println("drained cleanly")
}

// metric reads one unlabelled family off the daemon's registry, the store
// behind GET /metrics.
func metric(srv *server.Server, name string) float64 {
	for _, s := range srv.Metrics().Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// postJSON posts v and decodes the response into out, failing hard on any
// error — example-grade plumbing.
func postJSON(url string, v, out any) {
	b, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
