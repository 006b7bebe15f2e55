package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/scip-cache/scip/internal/httpx"
)

// ErrPeerMiss reports that no queried peer held the object's body. The
// server's fill chain treats it (and any other peer error) as "fall
// through to the origin" — peer fill is an optimisation layer, never a
// source of failures.
var ErrPeerMiss = errors.New("cluster: no peer holds the object")

// PeerClient fetches object bodies from ring-successor peers: a
// scip-serve node running with -peers constructs one and the server
// tries it before the origin on every declared-size miss. The peer
// asked is the next distinct node clockwise from this node at the key's
// ring position — for a key this node just inherited (a node joined or
// left), that successor is exactly the key's previous owner, so
// rebalanced keys warm from the fleet instead of hammering the origin.
//
// The peer side answers from its body store only (GET /peer/{key} —
// see internal/server): a peer fetch never touches the peer's policy
// state, which is what keeps peer fill invisible to every policy
// decision stream (the property TestClusterPeerFillConvertsOriginFills
// pins).
//
// PeerClient implements the server's Origin interface shape; the
// server applies its own bounded-backoff budget around Fetch, exactly
// as it does for the real origin.
type PeerClient struct {
	ring   *Ring
	self   int
	nodes  []string
	fanout int
	client *http.Client
}

// NewPeerClient builds a peer client for the node identified by self
// (which must appear in nodes; the list and vnodes must match the
// router's so both sides agree on ring positions: the daemons pass
// VNodes). fanout is how many distinct successors to ask per fetch
// (default 1). client defaults to httpx.NewClient's pooled one, like
// RouterConfig's; per-attempt timeouts are the server's concern.
func NewPeerClient(nodes []string, self string, vnodes, fanout int, client *http.Client) (*PeerClient, error) {
	ring, err := NewRing(nodes, vnodes)
	if err != nil {
		return nil, err
	}
	selfIdx := -1
	for i, n := range nodes {
		if n == self {
			selfIdx = i
		}
	}
	if selfIdx < 0 {
		return nil, fmt.Errorf("cluster: self %q not in the peer list", self)
	}
	if fanout < 1 {
		fanout = 1
	}
	if fanout > len(nodes)-1 {
		fanout = len(nodes) - 1
	}
	if client == nil {
		client = httpx.NewClient(len(nodes))
	}
	return &PeerClient{
		ring:   ring,
		self:   selfIdx,
		nodes:  ring.Nodes(),
		fanout: fanout,
		client: client,
	}, nil
}

// Fetch implements the server Origin contract against the peer tier: it
// asks up to fanout ring successors of this node (at key's position)
// for the stored body and returns the first hit. A 404 from every peer
// — or any transport error — yields ErrPeerMiss-wrapped failure so the
// caller falls through to the real origin. size passes through as the
// authoritative object size; peers store bodies, not sizes, so callers
// only peer-fill requests that declare one.
func (p *PeerClient) Fetch(ctx context.Context, key uint64, size int64) ([]byte, int64, error) {
	if len(p.nodes) < 2 {
		return nil, 0, ErrPeerMiss
	}
	// Walk the distinct-node ring order from the key's position and
	// collect the fanout successors that come after self, wrapping.
	order := p.ring.Replicas(key, len(p.nodes))
	selfAt := 0
	for i, n := range order {
		if n == p.self {
			selfAt = i
			break
		}
	}
	var lastErr error = ErrPeerMiss
	asked := 0
	for i := 1; i < len(order) && asked < p.fanout; i++ {
		peer := order[(selfAt+i)%len(order)]
		if peer == p.self {
			continue
		}
		asked++
		body, err := p.fetchPeer(ctx, p.nodes[peer], key)
		if err == nil {
			objSize := size
			if objSize < 0 {
				objSize = int64(len(body))
			}
			return body, objSize, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

// fetchPeer performs one GET {base}/peer/{key}; a 404 is ErrPeerMiss.
// A body of declared length arrives in a buffer of exactly that length
// (see httpx.Fetch).
func (p *PeerClient) fetchPeer(ctx context.Context, base string, key uint64) ([]byte, error) {
	body, err := httpx.Fetch(ctx, p.client, base+"/peer/"+strconv.FormatUint(key, 10))
	if se, ok := err.(*httpx.StatusError); ok {
		if se.Code == http.StatusNotFound {
			return nil, fmt.Errorf("%w (peer %s)", ErrPeerMiss, base)
		}
		return nil, fmt.Errorf("peer %s: %w", base, err)
	}
	return body, err
}
