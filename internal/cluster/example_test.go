package cluster_test

import (
	"fmt"

	"github.com/scip-cache/scip/internal/cluster"
)

// ExampleRing shows the ownership contract: every fleet participant
// builds a ring from the same node list (order does not matter) and
// agrees on which node owns a key and which nodes form its replica set.
func ExampleRing() {
	nodes := []string{
		"http://10.0.0.1:8344",
		"http://10.0.0.2:8344",
		"http://10.0.0.3:8344",
	}
	ring, err := cluster.NewRing(nodes, 64)
	if err != nil {
		panic(err)
	}
	for _, key := range []uint64{4, 5, 6} {
		owner := ring.Lookup(key)
		set := ring.Replicas(key, 2)
		fmt.Printf("key %d -> %s (fallback %s)\n", key, nodes[owner], nodes[set[1]])
	}
	// Output:
	// key 4 -> http://10.0.0.1:8344 (fallback http://10.0.0.2:8344)
	// key 5 -> http://10.0.0.2:8344 (fallback http://10.0.0.1:8344)
	// key 6 -> http://10.0.0.3:8344 (fallback http://10.0.0.1:8344)
}

// ExampleNewRouter builds the routing tier the scip-route binary wires
// up: a router over a fleet node list, ready to serve once handed a
// listener (Serve/ListenAndServe run the health loop alongside).
func ExampleNewRouter() {
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes: []string{
			"http://10.0.0.1:8344",
			"http://10.0.0.2:8344",
			"http://10.0.0.3:8344",
		},
		Replicate: true, // spread hot-key reads over 2 replicas
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("fleet of %d, all up: %v\n", len(rt.Ring().Nodes()), rt.Registry().UpCount() == 3)
	fmt.Printf("key 7 owned by %s\n", rt.Ring().Nodes()[rt.Ring().Lookup(7)])
	// Output:
	// fleet of 3, all up: true
	// key 7 owned by http://10.0.0.2:8344
}
