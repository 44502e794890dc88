package netserve

import (
	"fmt"
	"net"

	"repro/internal/graph"
)

// ShardMap partitions the router ID space [0,n) into k near-equal
// contiguous slices: shard i owns [ceil(i*n/k), ceil((i+1)*n/k)).
// Ownership keys on a query's source router, so a shard answers
// exactly the queries its slice of routers would receive — and with a
// streaming distance backend it holds distance rows only for sources it
// owns, which is the memory story of sharding: k shards at O(workers*n)
// resident rows each, never the n^2 table anywhere.
type ShardMap struct {
	N int // router count
	K int // shard count
}

// NewShardMap validates the partition: at least one shard, and no more
// shards than routers (an empty slice would be a shard that can never
// receive a query — a configuration error, not a degenerate case to
// serve silently).
func NewShardMap(n, k int) (ShardMap, error) {
	if n < 1 {
		return ShardMap{}, fmt.Errorf("netserve: shard map needs n >= 1 routers, got %d", n)
	}
	if k < 1 {
		return ShardMap{}, fmt.Errorf("netserve: shard map needs k >= 1 shards, got %d", k)
	}
	if k > n {
		return ShardMap{}, fmt.Errorf("netserve: %d shards over %d routers leaves empty shards (need k <= n)", k, n)
	}
	return ShardMap{N: n, K: k}, nil
}

// Owner returns the shard owning source router u. The caller
// guarantees u in [0, N); the cluster answers out-of-range sources
// locally before consulting the map.
func (m ShardMap) Owner(u graph.NodeID) int {
	return int(uint64(u) * uint64(m.K) / uint64(m.N))
}

// Range returns shard i's owned slice [lo, hi).
func (m ShardMap) Range(i int) (lo, hi graph.NodeID) {
	lo = graph.NodeID((i*m.N + m.K - 1) / m.K)
	hi = graph.NodeID(((i+1)*m.N + m.K - 1) / m.K)
	return lo, hi
}

// Group runs k shard servers on loopback — the in-process cluster
// bootstrap shared by routeserve -listen -shards k, the repository
// benchmark and the conformance suite. Each shard gets its own Server
// (own admission semaphore, own connections) built over the handler
// the factory returns for its index.
type Group struct {
	servers []*Server
	addrs   []string
}

// ListenGroupInto starts k servers on 127.0.0.1 ephemeral ports.
// handler is called once per shard index; opt applies to every shard.
// Each shard server recycles its per-connection result buffers through
// its handler (NewServerInto semantics).
func ListenGroupInto(k int, handler func(shard int) BatchHandlerInto, opt Options) (*Group, error) {
	g := &Group{}
	for i := 0; i < k; i++ {
		srv := NewServerInto(handler(i), opt)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("netserve: shard %d: %w", i, err)
		}
		g.servers = append(g.servers, srv)
		g.addrs = append(g.addrs, addr.String())
	}
	return g, nil
}

// Addrs returns the shard listen addresses, indexed by shard.
func (g *Group) Addrs() []string { return append([]string(nil), g.addrs...) }

// Server returns shard i's server (tests use it to close one shard).
func (g *Group) Server(i int) *Server { return g.servers[i] }

// Close gracefully drains every shard, returning the first error.
func (g *Group) Close() error {
	var first error
	for _, srv := range g.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// probeDial verifies addr accepts a TCP connection (used by DialCluster
// so a misconfigured shard address fails at dial time, not on the
// first batch).
func probeDial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}
