package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzRequestBodies sends fuzzed bodies to the two endpoints that decode a
// JSON request, POST /v1/evaluate and POST /v1/analyses, straight through
// Server.ServeHTTP against one cached dataset of two partitions; `$ds` in a
// body stands for its handle, so a mutation rarely loses the one string that
// gets a request past the lookup to the kernel. Whatever the bytes, the
// server answers: never a panic, and never a 5xx — a body it cannot use is
// the client's error. (503 would be legitimate while draining; the server
// here never drains before the fuzzing ends.)
//
//	go test -run '^$' -fuzz FuzzRequestBodies -fuzztime 20s -parallel 1 ./internal/server/
func FuzzRequestBodies(f *testing.F) {
	// One in-flight item per tenant and no queue: an analysis the fuzzer
	// started holds its tenant's slot, and the next one is refused (429)
	// instead of piling up behind it.
	s := New(Config{Threads: 1, TenantInflight: 1, TenantQueue: -1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	body, err := json.Marshal(submitRequest{Phylip: tinyPhylip(f, 6, 40, 1), PartitionLen: 20})
	if err != nil {
		f.Fatal(err)
	}
	rec := serve(s, "/v1/datasets", "", string(body))
	var sr submitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusOK || err != nil {
		f.Fatalf("submit: HTTP %d %v (%s)", rec.Code, err, rec.Body)
	}
	ds := `"dataset":"$ds"`
	for _, seed := range []string{
		// valid
		`{` + ds + `}`,
		`{` + ds + `,"seed":7,"alpha":0.8,"per_partition_branch_lengths":true}`,
		`{` + ds + `,"tree":"(taxon0:0.1,taxon1:0.2,(taxon2,taxon3),(taxon4,taxon5));"}`,
		`{` + ds + `,"mode":"search","max_rounds":1,"radius":2}`,
		// truncated
		`{` + ds + `,"se`,
		`{"dataset":`,
		``,
		// unknown field
		`{` + ds + `,"threads":64}`,
		// huge numbers
		`{` + ds + `,"seed":99999999999999999999999}`,
		`{` + ds + `,"alpha":1e308}`,
		`{` + ds + `,"alpha":1e999}`,
		`{` + ds + `,"mode":"search","max_rounds":9223372036854775807,"radius":-9223372036854775808}`,
		// wrong types
		`{"dataset":5}`,
		`{` + ds + `,"seed":"7"}`,
		`{` + ds + `,"alpha":true}`,
		`[` + ds + `]`,
		`null`,
		`"$ds"`,
	} {
		f.Add(false, []byte(seed))
		f.Add(true, []byte(seed))
	}
	f.Fuzz(func(t *testing.T, analyses bool, body []byte) {
		path := "/v1/evaluate"
		if analyses {
			path = "/v1/analyses"
		}
		rec := serve(s, path, path, strings.ReplaceAll(string(body), "$ds", sr.ID))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: HTTP %d (%s)", path, body, rec.Code, rec.Body)
		}
	})
}

// serve posts one JSON body through the server's handler, as tenant (the
// default tenant when empty), and returns the recorded response.
func serve(s *Server, path, tenant, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}
