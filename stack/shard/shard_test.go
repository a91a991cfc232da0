package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/stack"
	"repro/stack/client"
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

// batch mixes report-producing, clean, and repeated sources — enough
// files that round-robin dealing gives every replica real work.
func batch() []stack.Source {
	return []stack.Source{
		{Name: "a.c", Text: fig1Src},
		{Name: "b.c", Text: "int f(void) { return 0; }"},
		{Name: "c.c", Text: divSrc},
		{Name: "d.c", Text: fig1Src},
		{Name: "e.c", Text: divSrc},
		{Name: "f.c", Text: "int g(void) { return 1; }"},
		{Name: "g.c", Text: fig1Src},
	}
}

// jsonl renders a Checker's batch output through the JSONL sink — the
// canonical byte-level view of the stream.
func jsonl(t *testing.T, chk stack.Checker, srcs []stack.Source) (string, stack.Stats) {
	t.Helper()
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

// TestShardedLocalByteIdentity: a dispatcher over in-process replicas
// produces the same stream as one local Analyzer — any replica count.
func TestShardedLocalByteIdentity(t *testing.T) {
	srcs := batch()
	local := stack.New(stack.WithSolverTimeout(0))
	want, wantSt := jsonl(t, local, srcs)
	if want == "" {
		t.Fatal("local run produced nothing; identity test is vacuous")
	}
	for _, replicas := range []int{1, 2, 3} {
		reps := make([]stack.Checker, replicas)
		for i := range reps {
			reps[i] = stack.New(stack.WithSolverTimeout(0))
		}
		got, gotSt := jsonl(t, New(reps...), srcs)
		if got != want {
			t.Errorf("%d replicas: stream diverged\n--- got ---\n%s--- want ---\n%s", replicas, got, want)
		}
		// Stats sum across replicas; total effort equals the local run
		// for a deterministic workload.
		if gotSt.Queries != wantSt.Queries || gotSt.Functions != wantSt.Functions {
			t.Errorf("%d replicas: stats diverged: %+v vs %+v", replicas, gotSt, wantSt)
		}
	}
}

// TestShardedRemoteByteIdentity is the acceptance criterion: a
// 2-replica sharded run over real HTTP replicas is byte-identical to
// the local single-process run on the same inputs.
func TestShardedRemoteByteIdentity(t *testing.T) {
	srcs := batch()
	local := stack.New(stack.WithSolverTimeout(0))
	want, wantSt := jsonl(t, local, srcs)

	reps := make([]stack.Checker, 2)
	for i := range reps {
		ts := httptest.NewServer(service.New(stack.New(stack.WithSolverTimeout(0)), service.Options{}))
		t.Cleanup(ts.Close)
		reps[i] = client.New(ts.URL)
	}
	got, gotSt := jsonl(t, New(reps...), srcs)
	if got != want {
		t.Errorf("sharded remote stream diverged from local\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The "sched" counters track per-process allocator reuse and so
	// depend on how the work is spread across replicas; all analysis
	// quantities must still match exactly.
	if gotSt, wantSt := gotSt.Without("sched"), wantSt.Without("sched"); gotSt != wantSt {
		t.Errorf("sharded remote stats diverged: %+v vs %+v", gotSt, wantSt)
	}
}

// TestShardedErrorInOrder: the earliest failing input index wins, the
// error names that source, and emission stops at its index — even when
// the failure lands on a different replica than later successes.
func TestShardedErrorInOrder(t *testing.T) {
	reps := []stack.Checker{
		stack.New(stack.WithSolverTimeout(0)),
		stack.New(stack.WithSolverTimeout(0)),
	}
	srcs := []stack.Source{
		{Name: "a.c", Text: fig1Src},         // replica 0
		{Name: "broken.c", Text: "int f( {"}, // replica 1 — fails
		{Name: "c.c", Text: divSrc},          // replica 0
		{Name: "d.c", Text: fig1Src},         // replica 1
	}
	var order []int
	_, err := New(reps...).CheckSources(context.Background(), srcs, func(fr stack.FileResult) {
		order = append(order, fr.Index)
	})
	if err == nil || !strings.Contains(err.Error(), "broken.c") {
		t.Fatalf("error = %v, want one naming broken.c", err)
	}
	if len(order) > 0 && !reflect.DeepEqual(order, []int{0}) {
		t.Errorf("emitted indices %v, want at most [0]", order)
	}
	for _, idx := range order {
		if idx >= 1 {
			t.Errorf("index %d emitted at or after the failing index", idx)
		}
	}
}

// TestShardedCancellation: cancelling the caller's context surfaces
// context.Canceled (not a replica casualty masking it) and returns
// promptly.
func TestShardedCancellation(t *testing.T) {
	reps := []stack.Checker{stack.New(), stack.New()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(reps...).CheckSources(ctx, batch(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckSourceRouting: single-file analysis routes by name hash —
// deterministic, and the result matches a local run.
func TestCheckSourceRouting(t *testing.T) {
	local := stack.New(stack.WithSolverTimeout(0))
	d := New(stack.New(stack.WithSolverTimeout(0)), stack.New(stack.WithSolverTimeout(0)))
	want, err := local.CheckSource(context.Background(), "fig1.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.CheckSource(context.Background(), "fig1.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("routed result diverged: %+v vs %+v", got, want)
	}
}

// stubChecker emits every source of its subset in order with empty
// diagnostics; gate (when non-nil) parks it before its first emission.
type stubChecker struct {
	gate <-chan struct{}
}

func (s *stubChecker) CheckSource(ctx context.Context, name, src string) (*stack.Result, error) {
	return &stack.Result{File: name}, nil
}

func (s *stubChecker) CheckSources(ctx context.Context, srcs []stack.Source, emit func(stack.FileResult)) (stack.Stats, error) {
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return stack.Stats{}, ctx.Err()
		}
	}
	for i := range srcs {
		emit(stack.FileResult{Index: i, File: srcs[i].Name})
	}
	return stack.Stats{}, nil
}

// TestShardedSlowReplicaNoDeadlock: a fast replica running arbitrarily
// far ahead of a slow replica's earliest pending source must not
// starve the slow replica of admission slots. Regression test for the
// per-replica quota: with only the shared window, the fast replica
// consumed every slot on indices after the gap, delivery could never
// advance, and the sweep hung forever.
func TestShardedSlowReplicaNoDeadlock(t *testing.T) {
	gate := make(chan struct{})
	slow := &stubChecker{gate: gate}
	fast := &stubChecker{}
	// 40 sources round-robin over 2 replicas: the fast replica's 20
	// results dwarf the 4*2 shared window.
	srcs := make([]stack.Source, 40)
	for i := range srcs {
		srcs[i] = stack.Source{Name: fmt.Sprintf("s%02d.c", i), Text: "int x;"}
	}
	var order []int
	done := make(chan error, 1)
	go func() {
		_, err := New(slow, fast).CheckSources(context.Background(), srcs, func(fr stack.FileResult) {
			order = append(order, fr.Index)
		})
		done <- err
	}()
	// Give the fast replica time to race as far ahead as admission
	// allows while the slow replica is parked before source 0.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("CheckSources: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sharded sweep deadlocked: the fast replica starved the slow one of admission slots")
	}
	if len(order) != len(srcs) {
		t.Fatalf("emitted %d results, want %d", len(order), len(srcs))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("emission %d has index %d; order must be strictly increasing from 0", i, idx)
		}
	}
}

// TestFromHosts: the -remote list translation shared by the CLIs.
func TestFromHosts(t *testing.T) {
	if d, err := FromHosts(" host1:1 , ,host2:2 "); err != nil || len(d.replicas) != 2 {
		t.Errorf("FromHosts = %v, %v; want 2 replicas", d, err)
	}
	if _, err := FromHosts(" , "); err == nil {
		t.Error("empty list did not error")
	}
}

// TestEmptyReplicas: constructing a dispatcher with no replicas is a
// programming error and fails loudly.
func TestEmptyReplicas(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New() with no replicas did not panic")
		}
	}()
	New()
}
