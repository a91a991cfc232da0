package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/stack"
	"repro/stack/service"
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

const divSrc = `
int scale(int x, int y) {
	int q = x / y;
	if (y == 0)
		return -1;
	return q;
}
`

// newReplica starts an in-process stackd replica over az and returns a
// Client for it.
func newReplica(t *testing.T, az *stack.Analyzer) *Client {
	t.Helper()
	ts := httptest.NewServer(service.New(az, service.Options{}))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

// TestCheckSourceRemoteEqualsLocal: a remote single-file analysis
// returns exactly the local Result — diagnostics and stats.
func TestCheckSourceRemoteEqualsLocal(t *testing.T) {
	az := stack.New(stack.WithSolverTimeout(0))
	c := newReplica(t, az)

	want, err := az.CheckSource(context.Background(), "fig1.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.CheckSource(context.Background(), "fig1.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote result diverged\n--- got ---\n%+v\n--- want ---\n%+v", got, want)
	}
	if len(got.Diagnostics) == 0 {
		t.Fatal("no diagnostics; the identity is vacuous")
	}
}

// TestCheckSourcesRemoteByteIdentity: the JSONL rendering of a remote
// batch is byte-identical to a local run for several worker counts,
// and the stats trailer round-trips the replica's effort counters.
func TestCheckSourcesRemoteByteIdentity(t *testing.T) {
	srcs := []stack.Source{
		{Name: "a.c", Text: fig1Src},
		{Name: "b.c", Text: "int f(void) { return 0; }"},
		{Name: "c.c", Text: divSrc},
		{Name: "d.c", Text: fig1Src},
		{Name: "e.c", Text: divSrc},
	}
	for _, workers := range []int{1, 4} {
		az := stack.New(stack.WithWorkers(workers), stack.WithSolverTimeout(0))
		c := newReplica(t, az)

		render := func(chk stack.Checker) (string, stack.Stats) {
			var buf bytes.Buffer
			sink := stack.NewJSONLSink(&buf)
			st, err := chk.CheckSources(context.Background(), srcs, func(fr stack.FileResult) {
				if err := sink.Emit(fr); err != nil {
					t.Fatal(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return buf.String(), st
		}
		wantOut, wantSt := render(az)
		gotOut, gotSt := render(c)
		if gotOut != wantOut {
			t.Errorf("workers=%d: remote stream diverged\n--- got ---\n%s--- want ---\n%s", workers, gotOut, wantOut)
		}
		// The "sched" counters measure the serving process's allocator
		// reuse, which legitimately depends on deployment topology (how
		// many checker instances the work is spread over) — every
		// analysis quantity must still match exactly.
		if gotSt, wantSt := gotSt.Without("sched"), wantSt.Without("sched"); gotSt != wantSt {
			t.Errorf("workers=%d: stats diverged: remote %+v, local %+v", workers, gotSt, wantSt)
		}
		if gotSt.Queries == 0 {
			t.Errorf("workers=%d: stats trailer not decoded: %+v", workers, gotSt)
		}
	}
}

// TestCheckSourcesRemoteError: a failing source stops emission at its
// index and surfaces an error naming it, exactly like the local
// contract.
func TestCheckSourcesRemoteError(t *testing.T) {
	c := newReplica(t, stack.New(stack.WithSolverTimeout(0)))
	var order []int
	_, err := c.CheckSources(context.Background(), []stack.Source{
		{Name: "a.c", Text: fig1Src},
		{Name: "broken.c", Text: "int f( {"},
		{Name: "after.c", Text: fig1Src},
	}, func(fr stack.FileResult) { order = append(order, fr.Index) })
	if err == nil || !strings.Contains(err.Error(), "broken.c") {
		t.Fatalf("error = %v, want one naming broken.c", err)
	}
	if !reflect.DeepEqual(order, []int{0}) {
		t.Errorf("emitted indices %v, want [0]", order)
	}
}

// TestStatusError: a non-200 answer (here: a whole-batch rejection)
// becomes a *StatusError with the server's message.
func TestStatusError(t *testing.T) {
	c := newReplica(t, stack.New())
	_, err := c.CheckSources(context.Background(), []stack.Source{{Name: "x.c", Text: "int f( {"}}, nil)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v (%T), want *StatusError", err, err)
	}
	if se.StatusCode != http.StatusUnprocessableEntity || se.Message == "" {
		t.Errorf("StatusError = %+v, want 422 with a message", se)
	}
}

// TestBaseNormalization: bare host:port, trailing slash, and explicit
// scheme all reach the replica.
func TestBaseNormalization(t *testing.T) {
	ts := httptest.NewServer(service.New(stack.New(), service.Options{}))
	defer ts.Close()
	hostport := strings.TrimPrefix(ts.URL, "http://")
	for _, base := range []string{ts.URL, ts.URL + "/", hostport} {
		c := New(base)
		res, err := c.CheckSource(context.Background(), "x.c", "int f(void) { return 0; }")
		if err != nil {
			t.Errorf("base %q: %v", base, err)
			continue
		}
		if res.File != "x.c" {
			t.Errorf("base %q: file = %q", base, res.File)
		}
	}
}

// TestEmptyBatch never touches the network.
func TestEmptyBatch(t *testing.T) {
	c := New("127.0.0.1:1") // nothing listens here
	st, err := c.CheckSources(context.Background(), nil, nil)
	if err != nil || st != (stack.Stats{}) {
		t.Fatalf("empty batch: %v, %+v", err, st)
	}
}

// TestStreamDecoding: the client decodes per-file lines as they
// arrive; a hand-rolled chunked server proves no full-body buffering.
func TestStreamDecoding(t *testing.T) {
	first := stack.FileResult{Index: 0, File: "a.c"}
	firstSent := make(chan struct{})
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		_ = enc.Encode(first)
		w.(http.Flusher).Flush()
		close(firstSent)
		<-release
		_ = enc.Encode(stack.FileResult{Index: 1, File: "b.c"})
	}))
	defer ts.Close()
	var relOnce sync.Once
	releaseServer := func() { relOnce.Do(func() { close(release) }) }
	defer releaseServer() // unpark the handler even when the test bails early

	got := make(chan stack.FileResult, 2)
	done := make(chan error, 1)
	go func() {
		_, err := New(ts.URL).CheckSources(context.Background(), []stack.Source{
			{Name: "a.c", Text: "int a;"}, {Name: "b.c", Text: "int b;"},
		}, func(fr stack.FileResult) { got <- fr })
		done <- err
	}()
	<-firstSent
	select {
	case fr := <-got:
		if !reflect.DeepEqual(fr, first) {
			t.Errorf("first emission = %+v, want %+v", fr, first)
		}
	case err := <-done:
		t.Fatalf("CheckSources returned early: %v", err)
	}
	releaseServer()
	if err := <-done; err != nil {
		t.Fatalf("CheckSources: %v", err)
	}
}
