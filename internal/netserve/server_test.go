package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// echoHandler answers each query with Len = U*1000 + V — a cheap,
// deterministic stand-in for a serve.Server that makes positional
// mixups visible (the conformance suite at the repository root runs
// the real schemes; these tests probe the transport behaviors).
func echoHandler(qs []serve.Query, _ []serve.Result) []serve.Result {
	rs := make([]serve.Result, len(qs))
	for i, q := range qs {
		if q.Op == serve.OpStretch {
			rs[i] = serve.Result{Err: fmt.Errorf("echo: no oracle for %d->%d", q.U, q.V)}
			continue
		}
		rs[i] = serve.Result{Len: int(q.U)*1000 + int(q.V)}
	}
	return rs
}

func echoLen(q serve.Query) int { return int(q.U)*1000 + int(q.V) }

func testQueries(n, count int) []serve.Query {
	qs := make([]serve.Query, count)
	for i := range qs {
		qs[i] = serve.Query{Op: serve.OpLen, U: graph.NodeID(i % n), V: graph.NodeID((i * 7) % n)}
	}
	return qs
}

func TestClusterEndToEnd(t *testing.T) {
	const n = 30
	group, err := ListenGroupInto(3, func(int) BatchHandlerInto { return echoHandler }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()
	c, err := DialCluster(group.Addrs(), n, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := testQueries(n, 500)
	qs = append(qs, serve.Query{Op: serve.OpLen, U: 99, V: 0}) // out of range: answered locally
	out := c.ServeBatch(qs)
	for i := 0; i < 500; i++ {
		if out[i].Err != nil || out[i].Len != echoLen(qs[i]) {
			t.Fatalf("query %d: got %+v", i, out[i])
		}
	}
	if out[500].Err == nil || !strings.Contains(out[500].Err.Error(), "outside [0,30)") {
		t.Fatalf("out-of-range query: got %+v", out[500])
	}
	// A second batch reuses pooled connections.
	out = c.ServeBatch(qs[:10])
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("pooled batch query %d: %v", i, out[i].Err)
		}
	}
}

// TestShardHangDeadline pins the straggler contract: a shard that
// accepts frames and never answers trips the cluster deadline, its
// queries get per-query errors, and every other shard's answers arrive
// untouched, in request order.
func TestShardHangDeadline(t *testing.T) {
	const n = 20
	healthy := NewServerInto(echoHandler, Options{})
	addr0, err := healthy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	// The hanging shard: accepts, reads forever, never writes a byte.
	hang, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hang.Close()
	go func() {
		for {
			conn, err := hang.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	c, err := DialCluster([]string{addr0.String(), hang.Addr().String()}, n, ClusterOptions{Deadline: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lo1, _ := c.Map().Range(1)
	qs := testQueries(n, 200)
	start := time.Now()
	out := c.ServeBatch(qs)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("batch took %s; straggler deadline did not fire", elapsed)
	}
	for i, q := range qs {
		if q.U >= lo1 { // owned by the hanging shard
			if out[i].Err == nil || !strings.Contains(out[i].Err.Error(), "shard 1") {
				t.Fatalf("query %d (src %d): got %+v, want shard 1 deadline error", i, q.U, out[i])
			}
		} else if out[i].Err != nil || out[i].Len != echoLen(q) {
			t.Fatalf("query %d (src %d): got %+v, want healthy answer", i, q.U, out[i])
		}
	}
}

// TestShardKilledMidBatch pins partial-result gathering: a shard whose
// connection dies after reading the request yields per-query errors
// for exactly its queries; order and the other shard's answers are
// preserved.
func TestShardKilledMidBatch(t *testing.T) {
	const n = 20
	healthy := NewServerInto(echoHandler, Options{})
	addr0, err := healthy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	// The dying shard: reads one frame, then slams the connection shut.
	die, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer die.Close()
	go func() {
		for {
			conn, err := die.Accept()
			if err != nil {
				return
			}
			go func() {
				readFrame(bufio.NewReader(conn)) //nolint:errcheck // killed-shard simulation
				conn.Close()
			}()
		}
	}()
	c, err := DialCluster([]string{addr0.String(), die.Addr().String()}, n, ClusterOptions{Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lo1, _ := c.Map().Range(1)
	qs := testQueries(n, 200)
	out := c.ServeBatch(qs)
	dead, alive := 0, 0
	for i, q := range qs {
		if q.U >= lo1 {
			if out[i].Err == nil || !strings.Contains(out[i].Err.Error(), "shard 1") {
				t.Fatalf("query %d: got %+v, want shard 1 error", i, out[i])
			}
			dead++
		} else {
			if out[i].Err != nil || out[i].Len != echoLen(q) {
				t.Fatalf("query %d: got %+v, want healthy answer", i, out[i])
			}
			alive++
		}
	}
	if dead == 0 || alive == 0 {
		t.Fatalf("degenerate split dead=%d alive=%d", dead, alive)
	}
}

// TestAdmissionOverload pins the backpressure contract: with the
// semaphore full, new frames are answered RefuseOverloaded immediately
// instead of queueing behind the stuck batch.
func TestAdmissionOverload(t *testing.T) {
	release := make(chan struct{})
	blocking := func(qs []serve.Query, out []serve.Result) []serve.Result {
		<-release
		return echoHandler(qs, out)
	}
	srv := NewServerInto(blocking, Options{MaxInFlight: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req, err := EncodeRequest(testQueries(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	send := func() ([]serve.Result, error) {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		pc := newPooledConn(conn)
		return pc.roundTrip(req, 5*time.Second)
	}
	// Occupy the only slot.
	firstDone := make(chan error, 1)
	go func() {
		_, err := send()
		firstDone <- err
	}()
	// Wait until the blocked batch actually holds the semaphore.
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first batch never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	// Every concurrent frame now gets an explicit refusal, promptly.
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, err := send()
		var ref *Refusal
		if !errors.As(err, &ref) || ref.Code != RefuseOverloaded {
			t.Fatalf("saturated send %d: got %v, want RefuseOverloaded", i, err)
		}
		if time.Since(start) > time.Second {
			t.Fatalf("saturated send %d blocked %s instead of being rejected", i, time.Since(start))
		}
	}
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("admitted batch failed: %v", err)
	}
}

// TestGracefulDrain pins the shutdown contract: a batch in flight when
// Close begins still gets its full response; new work is refused.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := func(qs []serve.Query, out []serve.Result) []serve.Result {
		close(entered)
		<-release
		return echoHandler(qs, out)
	}
	srv := NewServerInto(slow, Options{DrainTimeout: 5 * time.Second})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := newPooledConn(conn)
	req, _ := EncodeRequest(testQueries(4, 4))
	type reply struct {
		rs  []serve.Result
		err error
	}
	got := make(chan reply, 1)
	go func() {
		rs, err := pc.roundTrip(req, 10*time.Second)
		got <- reply{rs, err}
	}()
	<-entered // the batch is mid-handler; now drain
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(20 * time.Millisecond) // let Close mark the server draining
	close(release)
	r := <-got
	if r.err != nil || len(r.rs) != 4 {
		t.Fatalf("in-flight batch during drain: got %d results, err %v", len(r.rs), r.err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	// The drained server accepts no new connections.
	if c2, err := net.Dial("tcp", addr.String()); err == nil {
		c2.Close()
		t.Fatal("drained server still accepting")
	}
}

// TestMalformedFrameRefused pins the malformed-input path end to end:
// a frame whose payload does not decode draws RefuseMalformed (and the
// stream, still synchronized, keeps serving).
func TestMalformedFrameRefused(t *testing.T) {
	srv := NewServerInto(echoHandler, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pc := newPooledConn(conn)
	_, err = pc.roundTrip([]byte{0xde, 0xad, 0xbe, 0xef}, 2*time.Second)
	var ref *Refusal
	if !errors.As(err, &ref) || ref.Code != RefuseMalformed {
		t.Fatalf("got %v, want RefuseMalformed", err)
	}
	// Same connection, valid frame: still served.
	req, _ := EncodeRequest(testQueries(4, 2))
	rs, err := pc.roundTrip(req, 2*time.Second)
	if err != nil || len(rs) != 2 {
		t.Fatalf("post-refusal batch: %v (%d results)", err, len(rs))
	}
}

// TestServerConcurrentClients hammers one server from many goroutines
// while counting served batches — a transport-level race canary run
// under CI's -race (the scheme-level canary lives in the root suite).
func TestServerConcurrentClients(t *testing.T) {
	var served atomic.Int64
	counting := func(qs []serve.Query, out []serve.Result) []serve.Result {
		served.Add(1)
		return echoHandler(qs, out)
	}
	srv := NewServerInto(counting, Options{MaxInFlight: 16})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const clients, batches = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			pc := newPooledConn(conn)
			qs := testQueries(16, 32)
			req, _ := EncodeRequest(qs)
			for b := 0; b < batches; b++ {
				rs, err := pc.roundTrip(req, 5*time.Second)
				if err != nil {
					errs <- fmt.Errorf("client %d batch %d: %w", w, b, err)
					return
				}
				for i := range rs {
					if rs[i].Len != echoLen(qs[i]) {
						errs <- fmt.Errorf("client %d: positional mixup at %d", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := served.Load(); got != clients*batches {
		t.Fatalf("served %d batches, want %d", got, clients*batches)
	}
}
