package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"randperm/internal/engine"
	"randperm/internal/service"
	"randperm/permclient"
)

// The cluster workload: two permd nodes (R = 1, p = 8) on loopback in
// this process. Node 0's /v1/perm/{seed}/chunk?backend=cluster serves
// full n = 2^20 pulls, alternating a cold pull (a fresh seed: shard
// build, exchange, proxy) with a warm pull of the same seed (cached
// shards: proxy and encode only). Only this workload exercises
// internal/cluster's exchange decoding and proxying. Two nodes, because
// sixteen loopback nodes on two cores measure the scheduler.
//
// One operation is a cold pull and its warm pull. Every pull is
// compared value for value with engine.PermuteSliceCGM for the same
// (seed, n, p), outside the timed pulls.
const (
	clusterN     = 1 << 20
	clusterP     = 8
	clusterNodes = 2
)

type clusterRig struct {
	nodes [clusterNodes]*permd
	peer  *countingListener // node 1's listener: all peer traffic crosses it
	cl    *permclient.Client
	hc    *http.Client
}

func (g *clusterRig) close() {
	g.hc.CloseIdleConnections()
	for _, nd := range g.nodes {
		if nd != nil {
			nd.close()
		}
	}
}

// startCluster boots the two nodes, joins them and returns a client of
// node 0.
func startCluster() (*clusterRig, error) {
	var lns [clusterNodes]net.Listener
	peers := make([]string, clusterNodes)
	for k := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:k] {
				l.Close()
			}
			return nil, err
		}
		lns[k] = ln
		peers[k] = "http://" + ln.Addr().String()
	}
	g := &clusterRig{peer: &countingListener{Listener: lns[1]}}
	lns[1] = g.peer
	g.hc = httpClient(nil)
	for k := range lns {
		nd, err := startPermd(lns[k], service.Config{
			Procs:        clusterP,
			MaxN:         clusterN,
			MaxHandles:   4,
			ClusterPeers: peers,
			ClusterNode:  k,
		})
		if err != nil {
			for _, l := range lns[k+1:] {
				l.Close()
			}
			g.close()
			return nil, err
		}
		g.nodes[k] = nd
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range g.nodes {
		if err := nd.h.JoinCluster(ctx); err != nil {
			g.close()
			return nil, fmt.Errorf("cluster join: %w", err)
		}
	}
	g.cl = permclient.New(permclient.Config{BaseURL: g.nodes[0].base, HTTPClient: g.hc, MaxRetries: -1})
	return g, nil
}

// pull fetches the whole (seed, clusterN) cluster permutation from node 0.
func (g *clusterRig) pull(seed uint64) ([]int64, error) {
	return g.cl.Chunk(context.Background(), seed, clusterN, 0, clusterN, permclient.WithBackend("cluster"))
}

// cgmReference is the single-process permutation every pull must equal.
func cgmReference(seed uint64, iota []int64) ([]int64, error) {
	return engine.PermuteSliceCGM(iota, clusterP, engine.Options{Seed: seed})
}

func equalValues(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func clusterIota() []int64 {
	iota := make([]int64, clusterN)
	for i := range iota {
		iota[i] = int64(i)
	}
	return iota
}

func runCluster(e *env) (*result, error) {
	r := &result{}
	iota := clusterIota()
	g, err := timeSetup(r, func() (*clusterRig, error) {
		g, err := startCluster()
		if err != nil {
			return nil, err
		}
		// Warm-up: one cold and one warm pull, checked.
		seed := mix(e.seed, 30, 0)
		want, err := cgmReference(seed, iota)
		if err != nil {
			g.close()
			return nil, err
		}
		for i := 0; i < 2; i++ {
			got, err := g.pull(seed)
			if err != nil || !equalValues(got, want) {
				g.close()
				return nil, fmt.Errorf("cluster warm-up pull %d: wrong output (err %v)", i, err)
			}
		}
		return g, nil
	}, (*clusterRig).close)
	if err != nil {
		return nil, err
	}
	defer g.close()
	if e.fault == "cluster" {
		g.peer.armFlip(1 << 20)
	}

	cold := r.add("cold_pull_ns_per_item", "ns")
	warm := r.add("warm_pull_ns_per_item", "ns")
	mem := startMem()
	began := time.Now()
	for k := int64(1); k == 1 || time.Since(began) < e.dur; k++ {
		seed := mix(e.seed, 31, uint64(k))
		pid, pstart := e.tr.begin()
		var pulls [2][]int64
		var errs [2]error
		var ds [2]time.Duration
		for i, name := range []string{"permclient.Client.Chunk/cold", "permclient.Client.Chunk/warm"} {
			ds[i] = e.tr.call(pid, k, name, func() { pulls[i], errs[i] = g.pull(seed) })
		}
		var want []int64
		var rerr error
		e.tr.call(pid, k, "check.engine.PermuteSliceCGM", func() { want, rerr = cgmReference(seed, iota) })
		e.tr.end(pid, 0, k, "cluster.pair", pstart)
		if rerr != nil {
			return nil, rerr
		}
		pairOK := true
		for i := range pulls {
			r.attempted++
			r.itemsAll += clusterN
			if errs[i] != nil || !equalValues(pulls[i], want) {
				r.failed++
				pairOK = false
			}
		}
		if pairOK {
			r.items += 2 * clusterN
			cold.vals = append(cold.vals, float64(ds[0].Nanoseconds())/clusterN)
			warm.vals = append(warm.vals, float64(ds[1].Nanoseconds())/clusterN)
			r.busy += ds[0] + ds[1]
			r.opMs = append(r.opMs, float64((ds[0]+ds[1]).Nanoseconds())/1e6)
		}
	}
	mem.stop(r)
	r.note("n", clusterN)
	r.note("p", clusterP)
	r.note("nodes", clusterNodes)
	return r, nil
}
