package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gogreen/internal/server"
	"gogreen/internal/testutil"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// basket renders the paper's example database in basket format.
func basket(t *testing.T) string {
	t.Helper()
	db := testutil.PaperDB()
	var sb strings.Builder
	for _, tx := range db.All() {
		for j, it := range tx {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", it)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestUploadMineRecycleFlow(t *testing.T) {
	ts := newTestServer(t)

	// Upload.
	resp, body := do(t, "PUT", ts.URL+"/db/paper", basket(t))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var info server.DBInfo
	json.Unmarshal(body, &info)
	if info.Tuples != 5 {
		t.Fatalf("info = %+v", info)
	}

	// Round 1 at support 3, saved.
	resp, body = do(t, "POST", ts.URL+"/db/paper/mine",
		`{"min_count":3,"save_as":"round1","limit":100}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}
	var r1 server.MineResponse
	json.Unmarshal(body, &r1)
	if r1.Count != 11 || r1.Source != "fresh" || r1.SavedAs != "round1" || r1.Cache != "miss" {
		t.Fatalf("round1 = %+v", r1)
	}
	if len(r1.Patterns) != 11 {
		t.Fatalf("echoed %d patterns", len(r1.Patterns))
	}

	// Round 2 relaxed: the ladder only has rung 3, so this is a lattice
	// relax, which the default pipeline mines fresh rather than recycle.
	resp, body = do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":2}`)
	var r2 server.MineResponse
	json.Unmarshal(body, &r2)
	if resp.StatusCode != http.StatusOK || r2.Source != "fresh" || r2.BasedOn != "" || r2.Cache != "relax" {
		t.Fatalf("round2 = %+v (%d)", r2, resp.StatusCode)
	}
	want := len(testutil.Oracle(t, testutil.PaperDB(), 2))
	if r2.Count != want {
		t.Fatalf("round2 count = %d, want %d", r2.Count, want)
	}

	// Round 3 tightened: a pure-filter lattice hit from the nearest rung
	// at or below (round 1's rung at 3).
	resp, body = do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":4}`)
	var r3 server.MineResponse
	json.Unmarshal(body, &r3)
	if r3.Source != "filtered" || r3.BasedOn != "lattice-3" || r3.Cache != "hit" {
		t.Fatalf("round3 = %+v", r3)
	}
	if r3.Count != len(testutil.Oracle(t, testutil.PaperDB(), 4)) {
		t.Fatalf("round3 count = %d", r3.Count)
	}

	// Explicit recycle source and fresh both bypass the ladder; a named
	// saved set is always recycled.
	resp, body = do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":1,"use":"round1"}`)
	var r4 server.MineResponse
	json.Unmarshal(body, &r4)
	if r4.Source != "recycled" || r4.BasedOn != "round1" || r4.Cache != "miss" ||
		r4.Count != len(testutil.Oracle(t, testutil.PaperDB(), 1)) {
		t.Fatalf("round4 = %+v", r4)
	}
	resp, body = do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":2,"use":"fresh"}`)
	var r5 server.MineResponse
	json.Unmarshal(body, &r5)
	if r5.Source != "fresh" || r5.Cache != "miss" || r5.Count != want {
		t.Fatalf("round5 = %+v", r5)
	}
}

func TestMinSupportFraction(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/db/d", basket(t))
	resp, body := do(t, "POST", ts.URL+"/db/d/mine", `{"min_support":0.6}`)
	var r server.MineResponse
	json.Unmarshal(body, &r)
	if resp.StatusCode != http.StatusOK || r.MinCount != 3 {
		t.Fatalf("min_support 0.6 on 5 tuples → %+v", r)
	}
}

func TestPatternEndpoints(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/db/d", basket(t))
	do(t, "POST", ts.URL+"/db/d/mine", `{"min_count":3,"save_as":"a"}`)
	do(t, "POST", ts.URL+"/db/d/mine", `{"min_count":2,"save_as":"b"}`)

	resp, body := do(t, "GET", ts.URL+"/db/d/patterns", "")
	var infos []server.SetInfo
	json.Unmarshal(body, &infos)
	if resp.StatusCode != http.StatusOK || len(infos) != 2 || infos[0].Name != "a" {
		t.Fatalf("pattern list = %s", body)
	}

	resp, body = do(t, "GET", ts.URL+"/db/d/patterns/a", "")
	var ps []server.MinePattern
	json.Unmarshal(body, &ps)
	if resp.StatusCode != http.StatusOK || len(ps) != 11 {
		t.Fatalf("set a = %s", body)
	}

	resp, _ = do(t, "GET", ts.URL+"/db/d/patterns/zzz", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing set: %d", resp.StatusCode)
	}
}

func TestListAndDelete(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/db/one", basket(t))
	do(t, "PUT", ts.URL+"/db/two", basket(t))

	resp, body := do(t, "GET", ts.URL+"/db", "")
	var infos []server.DBInfo
	json.Unmarshal(body, &infos)
	if resp.StatusCode != http.StatusOK || len(infos) != 2 {
		t.Fatalf("list = %s", body)
	}

	resp, _ = do(t, "DELETE", ts.URL+"/db/one", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/db/one", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/db/one", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}
}

func TestUploadReplaces(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := do(t, "PUT", ts.URL+"/db/d", basket(t))
	if resp.StatusCode != http.StatusCreated {
		t.Fatal("first upload")
	}
	resp, body := do(t, "PUT", ts.URL+"/db/d", "1 2\n3 4\n")
	var info server.DBInfo
	json.Unmarshal(body, &info)
	if resp.StatusCode != http.StatusOK || info.Tuples != 2 || info.Sets != 0 {
		t.Fatalf("replace = %+v (%d)", info, resp.StatusCode)
	}
}

func TestErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"PUT", "/db/bad name", "1 2\n", http.StatusBadRequest},
		{"PUT", "/db/..", "1 2\n", http.StatusNotFound}, // path-cleaned by the mux before matching
		{"PUT", "/db/empty", "", http.StatusBadRequest},
		{"PUT", "/db/junk", "1 x\n", http.StatusBadRequest},
		{"GET", "/db/missing", "", http.StatusNotFound},
		{"POST", "/db/missing/mine", `{"min_count":2}`, http.StatusNotFound},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: %d (%s), want %d", c.method, c.path, resp.StatusCode, body, c.want)
		}
	}

	do(t, "PUT", ts.URL+"/db/d", basket(t))
	bad := []string{
		`{"min_count":0}`,
		`{"min_support":1.5}`,
		`{not json`,
		`{"min_count":2,"use":"nope"}`,
		`{"min_count":2,"save_as":"bad name"}`,
	}
	for _, b := range bad {
		resp, body := do(t, "POST", ts.URL+"/db/d/mine", b)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("mine %s: %d (%s)", b, resp.StatusCode, body)
		}
	}
}

func TestBodyLimit(t *testing.T) {
	ts := httptest.NewServer(server.New(server.WithMaxBodyBytes(16)).Handler())
	defer ts.Close()
	resp, _ := do(t, "PUT", ts.URL+"/db/d", "1 2 3 4 5 6 7 8 9 10 11 12\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: %d", resp.StatusCode)
	}
}

// TestConcurrentMining hammers one database with parallel mines while other
// goroutines list databases, read pattern sets, and delete/re-upload a
// second database — the mixed workload the lock redesign must survive
// (run under -race).
func TestConcurrentMining(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/db/d", basket(t))
	do(t, "PUT", ts.URL+"/db/churn", basket(t))
	do(t, "POST", ts.URL+"/db/d/mine", `{"min_count":3,"save_as":"seed"}`)

	const miners, readers, churners = 8, 3, 2
	done := make(chan error, miners+readers+churners)
	for g := 0; g < miners; g++ {
		go func(g int) {
			for i := 0; i < 5; i++ {
				body := fmt.Sprintf(`{"min_count":%d,"save_as":"g%d"}`, 1+(g+i)%4, g)
				resp, data := do(t, "POST", ts.URL+"/db/d/mine", body)
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("miner %d: %d %s", g, resp.StatusCode, data)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < readers; g++ {
		go func(g int) {
			for i := 0; i < 10; i++ {
				if resp, data := do(t, "GET", ts.URL+"/db", ""); resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("reader %d list: %d %s", g, resp.StatusCode, data)
					return
				}
				if resp, data := do(t, "GET", ts.URL+"/db/d/patterns", ""); resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("reader %d patterns: %d %s", g, resp.StatusCode, data)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < churners; g++ {
		go func(g int) {
			for i := 0; i < 5; i++ {
				// Deletes race with uploads and may 404; both are fine — the
				// point is that nothing deadlocks or corrupts under -race.
				do(t, "DELETE", ts.URL+"/db/churn", "")
				do(t, "PUT", ts.URL+"/db/churn", "1 2\n2 3\n")
				do(t, "POST", ts.URL+"/db/churn/mine", `{"min_count":1}`)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < miners+readers+churners; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
