package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/stack"
)

const fig1Src = `
int parse_header(char *buf, char *buf_end, unsigned int len) {
	if (buf + len >= buf_end)
		return -1;
	if (buf + len < buf)
		return -1;
	return 0;
}
`

// divSrc produces a simplification diagnostic, so sweep streams carry
// both rule families.
const divSrc = `
int scale(int x, int y) {
	int q = x / y;
	if (y == 0)
		return -1;
	return q;
}
`

const cleanSrc = `int f(void) { return 0; }`

func newTestServer(opts Options) *Server {
	return New(stack.New(), opts)
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(Options{})
	w := doJSON(t, srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
	if w := doJSON(t, srv, http.MethodPost, "/healthz", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", w.Code)
	}
}

func TestAnalyzeHappyPath(t *testing.T) {
	srv := newTestServer(Options{})
	reqBody, _ := json.Marshal(map[string]string{"name": "figure1.c", "source": fig1Src})
	w := doJSON(t, srv, http.MethodPost, "/v1/analyze", string(reqBody))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var res stack.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if res.File != "figure1.c" {
		t.Errorf("file = %q", res.File)
	}
	if len(res.Diagnostics) == 0 {
		t.Fatal("expected diagnostics for the Figure 1 unstable check")
	}
	d := res.Diagnostics[0]
	if d.Code != stack.RuleElimination {
		t.Errorf("code = %q, want %q", d.Code, stack.RuleElimination)
	}
	if d.Span.File != "figure1.c" || d.Span.Line == 0 {
		t.Errorf("span = %+v", d.Span)
	}
	if len(d.UB) == 0 || d.UB[0].Code != stack.UBCodePointerOverflow {
		t.Errorf("ub = %+v, want pointer overflow (%s)", d.UB, stack.UBCodePointerOverflow)
	}
	if res.Stats.Queries == 0 {
		t.Errorf("stats = %+v, want nonzero queries", res.Stats)
	}
}

func TestAnalyzeDefaultsName(t *testing.T) {
	srv := newTestServer(Options{})
	w := doJSON(t, srv, http.MethodPost, "/v1/analyze", `{"source":"int f(void) { return 0; }"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var res stack.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.File != "input.c" {
		t.Errorf("file = %q, want the input.c default", res.File)
	}
	if len(res.Diagnostics) != 0 {
		t.Errorf("clean source produced diagnostics: %+v", res.Diagnostics)
	}
}

func TestAnalyzeRejections(t *testing.T) {
	srv := newTestServer(Options{MaxSourceBytes: 64})
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "{", http.StatusBadRequest},
		{"missing source", http.MethodPost, `{"name":"x.c"}`, http.StatusBadRequest},
		{"parse error", http.MethodPost, `{"source":"int f( {"}`, http.StatusUnprocessableEntity},
		{"oversized", http.MethodPost, `{"source":"` + strings.Repeat("x", 100) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		w := doJSON(t, srv, tc.method, "/v1/analyze", tc.body)
		if w.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, w.Code, tc.want, w.Body.String())
		}
		var e map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, w.Body.String())
		} else if e["error"] == "" {
			t.Errorf("%s: error body missing message: %v", tc.name, e)
		}
	}
}

// TestAnalyzeRejectsNestedMacroArguments: a 24 KB source nesting an
// identity macro's arguments 8,000 deep, well under the default body
// cap, is a frontend rejection (422) naming the nesting bound, not a
// process-wide out-of-memory.
func TestAnalyzeRejectsNestedMacroArguments(t *testing.T) {
	srv := newTestServer(Options{})
	src := "#define F(x) x\nint a = " + strings.Repeat("F(", 8000) + "1" + strings.Repeat(")", 8000) + ";\n"
	body, err := json.Marshal(map[string]string{"name": "nested.c", "source": src})
	if err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, srv, http.MethodPost, "/v1/analyze", string(body))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "macro argument nested deeper than 256") {
		t.Errorf("error body %s does not name the nesting bound", w.Body.String())
	}
}

// TestAnalyzeRejectsDeepNesting: a 200 KB source nesting parentheses
// 100,000 deep, past the parser's depth bound, is a frontend rejection
// (422) naming the bound, not a stack overflow that kills the process,
// and the server goes on answering.
func TestAnalyzeRejectsDeepNesting(t *testing.T) {
	srv := newTestServer(Options{})
	src := "int f(int x) { return " + strings.Repeat("(", 100000) + "x" + strings.Repeat(")", 100000) + "; }\n"
	body, err := json.Marshal(map[string]string{"name": "deep.c", "source": src})
	if err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, srv, http.MethodPost, "/v1/analyze", string(body))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "nesting deeper than 1000") {
		t.Errorf("error body %s does not name the nesting bound", w.Body.String())
	}
	body, err = json.Marshal(map[string]string{"name": "fig1.c", "source": fig1Src})
	if err != nil {
		t.Fatal(err)
	}
	if w := doJSON(t, srv, http.MethodPost, "/v1/analyze", string(body)); w.Code != http.StatusOK {
		t.Fatalf("next request: status = %d, want 200 (body %s)", w.Code, w.Body.String())
	}
}

func TestAnalyzeSaturation(t *testing.T) {
	srv := newTestServer(Options{MaxConcurrent: 1})
	// Occupy the only slot, as a long-running analysis would.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	w := doJSON(t, srv, http.MethodPost, "/v1/analyze", `{"source":"int f(void) { return 0; }"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

func TestAnalyzeRequestTimeout(t *testing.T) {
	srv := newTestServer(Options{RequestTimeout: time.Nanosecond})
	reqBody, _ := json.Marshal(map[string]string{"source": fig1Src})
	w := doJSON(t, srv, http.MethodPost, "/v1/analyze", string(reqBody))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", w.Code, w.Body.String())
	}
}

// TestOverHTTP drives the handler through a real listener end to end,
// the way cmd/stackd serves it.
func TestOverHTTP(t *testing.T) {
	ts := httptest.NewServer(newTestServer(Options{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"name":"fig1.c","source":`+mustJSON(fig1Src)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res stack.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) == 0 {
		t.Error("expected diagnostics over HTTP")
	}
}

func mustJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// sweepBatch is the standard test batch: a mix of elimination,
// simplification, clean, and repeated sources, enough files for
// worker-count scheduling to scramble completion order.
func sweepBatch() []stack.Source {
	return []stack.Source{
		{Name: "a.c", Text: fig1Src},
		{Name: "b.c", Text: cleanSrc},
		{Name: "c.c", Text: divSrc},
		{Name: "d.c", Text: fig1Src},
		{Name: "e.c", Text: divSrc},
		{Name: "f.c", Text: cleanSrc},
		{Name: "g.c", Text: fig1Src},
		{Name: "h.c", Text: divSrc},
	}
}

func sweepBody(t *testing.T, srcs []stack.Source) string {
	t.Helper()
	type src struct{ Name, Source string }
	batch := make([]map[string]string, len(srcs))
	for i, s := range srcs {
		batch[i] = map[string]string{"name": s.Name, "source": s.Text}
	}
	b, err := json.Marshal(map[string]any{"sources": batch})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepJSONLByteIdentity: the /v1/sweep JSONL stream is
// byte-identical to stack.NewJSONLSink fed by a local CheckSources,
// for Workers ∈ {1, 4, 16} — the acceptance bar of the batch API.
func TestSweepJSONLByteIdentity(t *testing.T) {
	srcs := sweepBatch()
	body := sweepBody(t, srcs)
	for _, workers := range []int{1, 4, 16} {
		az := stack.New(stack.WithWorkers(workers), stack.WithSolverTimeout(0))

		var want bytes.Buffer
		sink := stack.NewJSONLSink(&want)
		if _, err := az.CheckSources(context.Background(), srcs, func(fr stack.FileResult) {
			if err := sink.Emit(fr); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatalf("workers=%d: local CheckSources: %v", workers, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatal("local sink produced nothing; identity test is vacuous")
		}

		srv := New(az, Options{})
		w := doJSON(t, srv, http.MethodPost, "/v1/sweep", body)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status = %d, body %s", workers, w.Code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/jsonl" {
			t.Errorf("workers=%d: Content-Type = %q", workers, ct)
		}
		if w.Body.String() != want.String() {
			t.Errorf("workers=%d: sweep stream diverged from the local JSONL sink\n--- got ---\n%s--- want ---\n%s",
				workers, w.Body.String(), want.String())
		}
	}
}

// TestSweepStatsTrailer: ?stats=1 appends exactly one trailer line
// carrying the aggregated solver metrics — including the rewrite and
// incremental-session counters.
func TestSweepStatsTrailer(t *testing.T) {
	srv := newTestServer(Options{})
	w := doJSON(t, srv, http.MethodPost, "/v1/sweep?stats=1", sweepBody(t, sweepBatch()))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimRight(w.Body.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, key := range []string{`"stats"`, `"rewriteHits"`, `"blastPasses"`, `"learntsReused"`,
		`"cacheHits"`, `"learntsDropped"`, `"arenaBytesReused"`} {
		if !strings.Contains(last, key) {
			t.Errorf("stats trailer missing %s: %s", key, last)
		}
	}
	var trailer struct {
		Stats *stack.Stats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || trailer.Stats == nil {
		t.Fatalf("trailer does not decode: %v (%s)", err, last)
	}
	if trailer.Stats.Queries == 0 || trailer.Stats.Functions == 0 {
		t.Errorf("trailer stats empty: %+v", *trailer.Stats)
	}
	// Per-file lines must be untouched by the trailer option.
	if len(lines) != len(sweepBatch())+1 {
		t.Errorf("got %d lines, want %d per-file + 1 trailer", len(lines), len(sweepBatch()))
	}
}

// TestSweepFormats: text output matches the text sink; sarif parses
// and names the tool.
func TestSweepFormats(t *testing.T) {
	az := stack.New(stack.WithSolverTimeout(0))
	srcs := sweepBatch()
	body := sweepBody(t, srcs)
	srv := New(az, Options{})

	var want bytes.Buffer
	sink := stack.NewTextSink(&want)
	if _, err := az.CheckSources(context.Background(), srcs, func(fr stack.FileResult) {
		if err := sink.Emit(fr); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, srv, http.MethodPost, "/v1/sweep?format=text", body)
	if w.Code != http.StatusOK || w.Body.String() != want.String() {
		t.Errorf("text format: status %d\n--- got ---\n%s--- want ---\n%s", w.Code, w.Body.String(), want.String())
	}

	w = doJSON(t, srv, http.MethodPost, "/v1/sweep?format=sarif", body)
	if w.Code != http.StatusOK {
		t.Fatalf("sarif: status = %d, body %s", w.Code, w.Body.String())
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &log); err != nil {
		t.Fatalf("sarif does not decode: %v", err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "stack" || len(log.Runs[0].Results) == 0 {
		t.Errorf("unexpected sarif shape: %s", w.Body.String())
	}
}

// TestSweepRejections: the validation surface of the batch endpoint.
func TestSweepRejections(t *testing.T) {
	srv := newTestServer(Options{MaxSweepSources: 2})
	cases := []struct {
		name   string
		path   string
		method string
		body   string
		want   int
	}{
		{"method", "/v1/sweep", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"bad json", "/v1/sweep", http.MethodPost, "{", http.StatusBadRequest},
		{"no sources", "/v1/sweep", http.MethodPost, `{"sources":[]}`, http.StatusBadRequest},
		{"empty source", "/v1/sweep", http.MethodPost, `{"sources":[{"name":"x.c"}]}`, http.StatusBadRequest},
		{"bad format", "/v1/sweep?format=xml", http.MethodPost, `{"sources":[{"source":"int f(void){return 0;}"}]}`, http.StatusBadRequest},
		{"stats non-jsonl", "/v1/sweep?format=text&stats=1", http.MethodPost, `{"sources":[{"source":"int f(void){return 0;}"}]}`, http.StatusBadRequest},
		{"too many sources", "/v1/sweep", http.MethodPost,
			`{"sources":[{"source":"int a;"},{"source":"int b;"},{"source":"int c;"}]}`, http.StatusRequestEntityTooLarge},
		{"frontend error first file", "/v1/sweep", http.MethodPost, `{"sources":[{"name":"broken.c","source":"int f( {"}]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		w := doJSON(t, srv, tc.method, tc.path, tc.body)
		if w.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
}

// TestMethodNotAllowedAllowHeader: non-POST methods on both analysis
// endpoints answer 405 and advertise POST.
func TestMethodNotAllowedAllowHeader(t *testing.T) {
	srv := newTestServer(Options{})
	for _, path := range []string{"/v1/analyze", "/v1/sweep"} {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete, http.MethodHead} {
			w := doJSON(t, srv, method, path, "")
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status = %d, want 405", method, path, w.Code)
			}
			if allow := w.Header().Get("Allow"); allow != "POST" {
				t.Errorf("%s %s: Allow = %q, want POST", method, path, allow)
			}
		}
	}
}

// TestSweepMidStreamError: a frontend failure after results are on the
// wire appends a JSONL error trailer carrying the failing source's
// name; the prefix before the error is intact.
func TestSweepMidStreamError(t *testing.T) {
	srv := newTestServer(Options{})
	body := sweepBody(t, []stack.Source{
		{Name: "ok.c", Text: fig1Src},
		{Name: "broken.c", Text: "int f( {"},
		{Name: "after.c", Text: fig1Src},
	})
	w := doJSON(t, srv, http.MethodPost, "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (the 200 was sent before the error struck)", w.Code)
	}
	lines := strings.Split(strings.TrimRight(w.Body.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want ok.c result + error trailer:\n%s", len(lines), w.Body.String())
	}
	var first stack.FileResult
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.File != "ok.c" {
		t.Errorf("first line is not ok.c's result: %s", lines[0])
	}
	var trailer struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &trailer); err != nil || !strings.Contains(trailer.Error, "broken.c") {
		t.Errorf("error trailer = %s, want one naming broken.c", lines[1])
	}
}

// gatedChecker is a stack.Checker stub whose CheckSources emits every
// file but the last immediately, then blocks until the test releases
// it — making "did the client see results before the sweep finished?"
// deterministic instead of timing-dependent.
type gatedChecker struct {
	reached chan struct{} // closed once the early files are emitted
	gate    chan struct{} // closed by the test to release the last file
}

func (g *gatedChecker) CheckSource(ctx context.Context, name, src string) (*stack.Result, error) {
	return &stack.Result{File: name}, nil
}

func (g *gatedChecker) CheckSources(ctx context.Context, srcs []stack.Source, emit func(stack.FileResult)) (stack.Stats, error) {
	for i := 0; i < len(srcs)-1; i++ {
		emit(stack.FileResult{Index: i, File: srcs[i].Name})
	}
	close(g.reached)
	select {
	case <-g.gate:
	case <-ctx.Done():
		return stack.Stats{}, ctx.Err()
	}
	emit(stack.FileResult{Index: len(srcs) - 1, File: srcs[len(srcs)-1].Name})
	return stack.Stats{Queries: 1}, nil
}

// TestSweepTrueStreaming: the client observes the first files' results
// on the wire while the sweep is still running — per-file flushes, not
// buffer-then-flush. A real listener (httptest.NewServer) carries the
// stream so the test reads exactly what a remote client would.
func TestSweepTrueStreaming(t *testing.T) {
	chk := &gatedChecker{reached: make(chan struct{}), gate: make(chan struct{})}
	ts := httptest.NewServer(New(chk, Options{}))
	defer ts.Close()
	var gateOnce sync.Once
	releaseGate := func() { gateOnce.Do(func() { close(chk.gate) }) }
	defer releaseGate() // unpark the handler even when the test bails early

	body := sweepBody(t, []stack.Source{
		{Name: "slow0.c", Text: cleanSrc},
		{Name: "slow1.c", Text: cleanSrc},
		{Name: "last.c", Text: cleanSrc},
	})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	type lineOrErr struct {
		line string
		err  error
	}
	lineCh := make(chan lineOrErr)
	go func() {
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadString('\n')
			lineCh <- lineOrErr{line, err}
			if err != nil {
				return
			}
		}
	}()
	readLine := func(what string) string {
		t.Helper()
		select {
		case l := <-lineCh:
			if l.err != nil {
				t.Fatalf("reading %s: %v", what, l.err)
			}
			return l.line
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out reading %s: the server buffered instead of flushing per file", what)
			return ""
		}
	}

	<-chk.reached // the sweep is now parked before its final file
	for i := 0; i < 2; i++ {
		line := readLine(fmt.Sprintf("streamed line %d", i))
		var fr stack.FileResult
		if err := json.Unmarshal([]byte(line), &fr); err != nil || fr.Index != i {
			t.Fatalf("line %d = %q, want the result for index %d", i, line, i)
		}
		select {
		case <-chk.gate:
			t.Fatal("gate already released; the observation proves nothing")
		default:
		}
	}
	// Only now let the sweep finish; the last line and EOF follow.
	releaseGate()
	last := readLine("final line")
	var fr stack.FileResult
	if err := json.Unmarshal([]byte(last), &fr); err != nil || fr.File != "last.c" {
		t.Errorf("final line = %q, want last.c's result", last)
	}
	if l := <-lineCh; l.err == nil {
		t.Errorf("expected EOF after the final line, got %q", l.line)
	}
}
