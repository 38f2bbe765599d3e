package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"time"

	"randperm"
	"randperm/internal/cluster"
	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/engine"
	"randperm/internal/workload"
	"randperm/internal/xrand"
)

// The per-layer probes of a traced run. Each drives one layer through
// its public functions or HTTP endpoints on the workloads' own sizes,
// records a span around every call, checks what the call returned, and
// reports the median. They run identically after every workload, so a
// per-layer figure is comparable across traced runs; only the runtime.*
// and trace.* figures describe the workload that ran. README.md maps
// each figure to the end-to-end metric it should move.

// perLayer are the metrics of a traced run, in the order they print.
var perLayer = []metricDef{
	{"xrand.fill_ns_per_word", "ns"},
	{"calib.memmove_ns_per_word", "ns"},
	{"commat.sample_seq_us", "us"},
	{"commat.draws", "count"},
	{"core.sample_rows_us", "us"},
	{"core.supersteps", "count"},
	{"core.max_bytes", "B"},
	{"core.total_draws", "count"},
	{"engine.local_shuffle_ns_per_item", "ns"},
	{"engine.arrange_row_ns_per_item", "ns"},
	{"engine.shuffle_in_place_ns_per_item", "ns"},
	{"engine.bijection_chunk_ns_per_item", "ns"},
	{"randperm.permuter_chunk_ns_per_item", "ns"},
	{"workload.assign_ns", "ns"},
	{"service.serve_http_ns_per_item", "ns"},
	{"service.self_ns_per_item", "ns"},
	{"service.serve_http_lookup_us", "us"},
	{"service.ttfb_ms", "ms"},
	{"service.bytes_per_item", "B"},
	{"service.overhead_ratio", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_lookups", "count"},
	{"service.errors", "count"},
	{"permclient.decode_ns_per_item", "ns"},
	{"cluster.materialize_ms", "ms"},
	{"cluster.shard_build_ms", "ms"},
	{"cluster.exchange_items", "count"},
	{"cluster.hedged_requests", "count"},
	{"cluster.remote_chunk_ns_per_item", "ns"},
	{"cluster.local_chunk_ns_per_item", "ns"},
	{"net.peer_bytes_per_item", "B"},
	{"runtime.alloc_bytes_per_item", "B"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.late_p90_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// calibration is the same-run kernel every *_ns_per_item is also
// reported against: Xoshiro256.Fill and a memmove of the same words.
type calibration struct {
	Words            int     `json:"words"`
	FillNsPerWord    float64 `json:"fill_ns_per_word"`
	MemmoveNsPerWord float64 `json:"memmove_ns_per_word"`
	BaseNsPerWord    float64 `json:"base_ns_per_word"`
}

// calibWords exceeds a 4 MiB L2 eightfold while keeping the kernel's
// two buffers small beside the workloads' own memory.
const calibWords = 1 << 22

func calibrate(seed uint64, tr *tracer) calibration {
	src := make([]uint64, calibWords)
	dst := make([]uint64, calibWords)
	x := xrand.NewXoshiro256(seed)
	var fill, move []float64
	for i := 0; i < 7; i++ {
		d := tr.call(0, int64(i), "xrand.Xoshiro256.Fill", func() { x.Fill(src) })
		fill = append(fill, float64(d.Nanoseconds())/calibWords)
		d = tr.call(0, int64(i), "calib.memmove", func() { copy(dst, src) })
		move = append(move, float64(d.Nanoseconds())/calibWords)
	}
	c := calibration{Words: calibWords, FillNsPerWord: summarize(fill).Median, MemmoveNsPerWord: summarize(move).Median}
	c.BaseNsPerWord = c.FillNsPerWord + c.MemmoveNsPerWord
	return c
}

// layerResult is what the probes measured and how many of their checked
// calls failed.
type layerResult struct {
	attempted, failed int64
	metrics           map[string]metric
}

func (lr *layerResult) set(name string, v float64) { put(lr.metrics, perLayer, name, v) }

// probe times call at least reps times and until minDur has passed, as
// spans named name under a root span, and returns the durations of the
// calls whose check passed, in nanoseconds. check (optional) runs
// untimed after each call.
func (lr *layerResult) probe(tr *tracer, name string, reps int, minDur time.Duration, call func() error, check func() error) []float64 {
	root, rootStart := tr.begin()
	var ds []float64
	began := time.Now()
	for i := 0; i < reps || (time.Since(began) < minDur && i < 1e5); i++ {
		var err error
		d := tr.call(root, int64(i), name, func() { err = call() })
		if err == nil && check != nil {
			err = check()
		}
		lr.attempted++
		if err != nil {
			lr.failed++
			continue
		}
		ds = append(ds, float64(d.Nanoseconds()))
	}
	tr.end(root, 0, 0, "probe."+name, rootStart)
	return ds
}

func med(ds []float64) float64 { return summarize(ds).Median }

func errIf(bad bool, format string, args ...any) error {
	if bad {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// probeLayers runs every probe once, seeded by seed.
func probeLayers(seed uint64, tr *tracer) (*layerResult, error) {
	lr := &layerResult{metrics: map[string]metric{}}
	if err := probeEngines(lr, seed, tr); err != nil {
		return nil, err
	}
	if err := probeService(lr, seed, tr); err != nil {
		return nil, err
	}
	if err := probeCluster(lr, seed, tr); err != nil {
		return nil, err
	}
	return lr, nil
}

// probeEngines covers xrand's consumers, commat, core and engine, and
// the streaming Permuter and workload.Assign.
func probeEngines(lr *layerResult, seed uint64, tr *tracer) error {
	sizes := randperm.EvenBlocks(shuffleN, shuffleP)
	k := uint64(0)
	next := func() uint64 { k++; return mix(seed, 40, k) }

	// The exact counts are those of each probe's first call, whose seed
	// is fixed; later calls repeat it as many times as time allows.
	var m *commat.Matrix
	var draws []uint64
	ds := lr.probe(tr, "commat.SampleSeq", 200, 50*time.Millisecond, func() error {
		cnt := xrand.NewCounting(xrand.NewXoshiro256(next()))
		m = commat.SampleSeq(cnt, sizes, sizes)
		draws = append(draws, cnt.Count())
		return nil
	}, func() error { return m.CheckMargins(sizes, sizes) })
	lr.set("commat.sample_seq_us", med(ds)/1e3)
	lr.set("commat.draws", float64(draws[0]))

	var sim struct {
		supersteps     int
		maxBytes, draw int64
	}
	ds = lr.probe(tr, "core.SampleRows", 100, 50*time.Millisecond, func() error {
		mm, mach, err := core.SampleRows(shuffleP, next(), sizes, sizes, core.MatrixOpt)
		if err != nil {
			return err
		}
		if r := mach.Report(); sim.supersteps == 0 {
			sim.supersteps, sim.maxBytes, sim.draw = r.Supersteps, r.MaxBytes(), r.TotalDraws()
		}
		return mm.CheckMargins(sizes, sizes)
	}, nil)
	lr.set("core.sample_rows_us", med(ds)/1e3)
	lr.set("core.supersteps", float64(sim.supersteps))
	lr.set("core.max_bytes", float64(sim.maxBytes))
	lr.set("core.total_draws", float64(sim.draw))

	block := make([]int64, sizes[0])
	for i := range block {
		block[i] = int64(i)
	}
	seen := make([]uint64, len(block)/64)
	ds = lr.probe(tr, "engine.LocalShuffle", 5, 100*time.Millisecond, func() error {
		engine.LocalShuffle(xrand.NewXoshiro256(next()), block)
		return nil
	}, func() error { return errIf(!isPermutationOf(block, 0, seen), "LocalShuffle lost a value") })
	lr.set("engine.local_shuffle_ns_per_item", med(ds)/float64(len(block)))

	row := m.Row(0)
	var labels []int32
	ds = lr.probe(tr, "engine.ArrangeRow", 5, 100*time.Millisecond, func() error {
		labels = engine.ArrangeRow(xrand.NewXoshiro256(next()), row)
		return nil
	}, func() error {
		counts := make([]int64, len(row))
		for _, l := range labels {
			counts[l]++
		}
		return errIf(!equalValues(counts, row), "ArrangeRow labels do not match the row")
	})
	lr.set("engine.arrange_row_ns_per_item", med(ds)/float64(sizes[0]))

	data := make([]int64, shuffleN)
	for i := range data {
		data[i] = int64(i)
	}
	seenAll := make([]uint64, shuffleN/64)
	ds = lr.probe(tr, "engine.ShuffleInPlace", 3, 0, func() error {
		return engine.ShuffleInPlace(data, shuffleP, engine.Options{Seed: next()})
	}, func() error { return errIf(!isPermutationOf(data, 0, seenAll), "ShuffleInPlace lost a value") })
	lr.set("engine.shuffle_in_place_ns_per_item", med(ds)/shuffleN)
	data, seenAll = nil, nil

	pageSeed := next()
	bij := engine.NewBijection(pagesN, pageSeed)
	pm, err := randperm.NewPermuter(pagesN, randperm.Options{Seed: pageSeed, Backend: randperm.BackendBijective})
	if err != nil {
		return err
	}
	a, b := make([]int64, pageLen), make([]int64, pageLen)
	var start int64
	ds = lr.probe(tr, "engine.Bijection.Chunk", 20, 100*time.Millisecond, func() error {
		start = int64(next()%uint64(pagesN/pageLen)) * pageLen
		bij.Chunk(a, start)
		return nil
	}, func() error {
		_, err := pm.Chunk(b, start)
		return errIf(err != nil || !equalValues(a, b), "Bijection.Chunk differs from Permuter.Chunk at %d", start)
	})
	lr.set("engine.bijection_chunk_ns_per_item", med(ds)/pageLen)
	ds = lr.probe(tr, "randperm.Permuter.Chunk", 20, 100*time.Millisecond, func() error {
		start = int64(next()%uint64(pagesN/pageLen)) * pageLen
		_, err := pm.Chunk(a, start)
		return err
	}, func() error {
		return errIf(a[0] != bij.Index(start) || a[pageLen-1] != bij.Index(start+pageLen-1), "Permuter.Chunk differs from Bijection.Index at %d", start)
	})
	lr.set("randperm.permuter_chunk_ns_per_item", med(ds)/pageLen)

	spec, err := workload.ParseAssignSpec(lookupsSpec)
	if err != nil {
		return err
	}
	assignSeed := next()
	const batch = 256
	ids := make([]int64, batch)
	got := make([]int, batch)
	ds = lr.probe(tr, "workload.Assign", 20, 50*time.Millisecond, func() error {
		for i := range ids {
			ids[i] = int64(next() % uint64(lookupsN))
		}
		for i, id := range ids {
			got[i], _ = workload.Assign(spec, assignSeed, lookupsN, id)
		}
		return nil
	}, func() error {
		want := engine.NewBijection(lookupsN, assignSeed)
		for i, id := range ids {
			if b, _ := spec.Find(lookupsN, want.Index(id)); b != got[i] {
				return fmt.Errorf("Assign(%d) = %d, want %d", id, got[i], b)
			}
		}
		return nil
	})
	lr.set("workload.assign_ns", med(ds)/batch)
	return nil
}

// discardWriter is an http.ResponseWriter that keeps only the status and
// the number of body bytes.
type discardWriter struct {
	h     http.Header
	code  int
	bytes int64
}

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}

func (d *discardWriter) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}

func (d *discardWriter) Write(b []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.bytes += int64(len(b))
	return len(b), nil
}

// probeService covers the permd handler in process and over loopback,
// the permclient SDK's decoding, the quota-metered lookup path and the
// open-loop generator.
func probeService(lr *layerResult, seed uint64, tr *tracer) error {
	ctx := context.Background()
	pg, err := startPages(ctx, seed, "")
	if err != nil {
		return err
	}
	defer pg.close()
	k := uint64(0)
	nextStart := func() int64 { k++; return int64(mix(seed, 50, k)%uint64(pagesN/pageLen)) * pageLen }
	pmSeed := pageSeed(seed, 0)
	pm, err := randperm.NewPermuter(pagesN, randperm.Options{Seed: pmSeed, Backend: randperm.BackendBijective})
	if err != nil {
		return err
	}
	pagePath := func(start int64) string {
		return fmt.Sprintf("/v1/perm/%d/chunk?n=%d&start=%d&len=%d", pmSeed, pagesN, start, pageLen)
	}

	var dw *discardWriter
	ds := lr.probe(tr, "service.Server.ServeHTTP/chunk", 20, 100*time.Millisecond, func() error {
		dw = &discardWriter{}
		pg.srv.h.ServeHTTP(dw, httptest.NewRequest(http.MethodGet, pagePath(nextStart()), nil))
		return nil
	}, func() error {
		return errIf(dw.code != http.StatusOK || dw.bytes < pageLen, "in-process page: status %d, %d bytes", dw.code, dw.bytes)
	})
	served := med(ds) / pageLen
	lr.set("service.serve_http_ns_per_item", served)
	lr.set("service.self_ns_per_item", served-lr.metrics["randperm.permuter_chunk_ns_per_item"].Value)
	lr.set("service.bytes_per_item", float64(dw.bytes)/pageLen)

	// Over loopback: a raw GET read to discard, then the SDK on the
	// same page; the SDK's extra time is its decoding.
	var raw, sdk, ttfb []float64
	want := make([]int64, pageLen)
	for i := 0; i < 20; i++ {
		start := nextStart()
		var first time.Duration
		var status int
		var rawErr error
		began := time.Now()
		d := tr.call(0, int64(i), "http.Get/chunk", func() {
			trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { first = time.Since(began) }}
			req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodGet, pg.srv.base+pagePath(start), nil)
			if err != nil {
				rawErr = err
				return
			}
			resp, err := pg.hc.Do(req)
			if err != nil {
				rawErr = err
				return
			}
			status = resp.StatusCode
			_, rawErr = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
		var vals []int64
		var err error
		ds := tr.call(0, int64(i), "permclient.Client.Chunk", func() { vals, err = pg.cl.Chunk(ctx, pmSeed, pagesN, start, pageLen) })
		lr.attempted += 2
		_, werr := pm.Chunk(want, start)
		if rawErr != nil || status != http.StatusOK {
			lr.failed++
		} else {
			raw = append(raw, float64(d.Nanoseconds()))
			ttfb = append(ttfb, float64(first.Nanoseconds()))
		}
		if err != nil || werr != nil || !equalValues(vals, want) {
			lr.failed++
		} else {
			sdk = append(sdk, float64(ds.Nanoseconds()))
		}
	}
	lr.set("service.ttfb_ms", med(ttfb)/1e6)
	lr.set("service.overhead_ratio", med(raw)/pageLen/lr.metrics["randperm.permuter_chunk_ns_per_item"].Value)
	lr.set("permclient.decode_ns_per_item", (med(sdk)-med(raw))/pageLen)

	lg, err := startLookups(ctx, seed)
	if err != nil {
		return err
	}
	defer lg.close()
	before, err := scrapeMetrics(lg.hcs[0], lg.srv.base)
	if err != nil {
		return err
	}
	assignSeed, atSeed := lookupSeeds(seed)
	var codes [2]int
	ds = lr.probe(tr, "service.Server.ServeHTTP/lookup", 20, 50*time.Millisecond, func() error {
		k++
		id := int64(mix(seed, 51, k) % uint64(lookupsN))
		paths := [2]string{
			fmt.Sprintf("/v1/assign?seed=%d&n=%d&id=%d&spec=%s", assignSeed, lookupsN, id, lookupsSpec),
			fmt.Sprintf("/v1/perm/%d/at?n=%d&i=%d", atSeed, lookupsN, id),
		}
		for j, p := range paths {
			dw := &discardWriter{}
			lg.srv.h.ServeHTTP(dw, httptest.NewRequest(http.MethodGet, p, nil))
			codes[j] = dw.code
		}
		return nil
	}, func() error {
		return errIf(codes != [2]int{http.StatusOK, http.StatusOK}, "in-process lookups: status %v", codes)
	})
	lr.set("service.serve_http_lookup_us", med(ds)/2/1e3)

	ol := openLoop(ctx, lg, seed, 2, time.Second, tr)
	bad, err := checkLookups(seed, ol.reqs)
	if err != nil {
		return err
	}
	lr.attempted += int64(len(ol.reqs))
	lr.failed += bad
	lr.set("loadgen.late_p90_us", summarize(ol.late).P90)

	after, err := scrapeMetrics(lg.hcs[0], lg.srv.base)
	if err != nil {
		return err
	}
	hits := after["permd_handle_cache_hits_total"] - before["permd_handle_cache_hits_total"]
	misses := after["permd_handle_cache_misses_total"] - before["permd_handle_cache_misses_total"]
	lr.set("service.cache_lookups", hits+misses)
	lr.set("service.cache_hit_ratio", hits/max(hits+misses, 1))
	lr.set("service.errors", after["permd_request_errors_total"]-before["permd_request_errors_total"])
	return nil
}

// probeCluster covers the cluster layer twice: through two permd nodes
// (counters from /metrics, bytes from node 1's listener) and on two
// directly built cluster.Nodes (Materialize and Chunk).
func probeCluster(lr *layerResult, seed uint64, tr *tracer) error {
	iota := clusterIota()
	g, err := startCluster()
	if err != nil {
		return err
	}
	defer g.close()
	scrape := func() (map[string]float64, error) {
		sum := map[string]float64{}
		for _, nd := range g.nodes {
			m, err := scrapeMetrics(g.hc, nd.base)
			if err != nil {
				return nil, err
			}
			for k, v := range m {
				sum[k] += v
			}
		}
		return sum, nil
	}
	before, err := scrape()
	if err != nil {
		return err
	}
	peer0 := g.peer.bytes()
	const pairs = 3
	for i := 0; i < pairs; i++ {
		s := mix(seed, 60, uint64(i))
		want, err := cgmReference(s, iota)
		if err != nil {
			return err
		}
		for _, name := range []string{"permclient.Client.Chunk/cold", "permclient.Client.Chunk/warm"} {
			var got []int64
			var err error
			tr.call(0, int64(i), name, func() { got, err = g.pull(s) })
			lr.attempted++
			if err != nil || !equalValues(got, want) {
				lr.failed++
			}
		}
	}
	peerBytes := g.peer.bytes() - peer0
	after, err := scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	lr.set("cluster.shard_build_ms", delta("permd_cluster_shard_build_ns_total")/max(delta("permd_cluster_shard_builds_total"), 1)/1e6)
	lr.set("cluster.exchange_items", delta("permd_cluster_exchange_items_total")/pairs)
	lr.set("cluster.hedged_requests", delta("permd_cluster_hedged_requests_total"))
	lr.set("net.peer_bytes_per_item", float64(peerBytes)/(2*pairs*clusterN))

	return probeClusterNodes(lr, seed, tr, iota)
}

// probeClusterNodes times cluster.Node directly: Materialize of node 0's
// shard (its exchange with node 1 included), then 64Ki-value Chunk
// reads from node 0's own shard and from node 1's.
func probeClusterNodes(lr *layerResult, seed uint64, tr *tracer, iota []int64) error {
	var lns [clusterNodes]net.Listener
	peers := make([]string, clusterNodes)
	for k := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:k] {
				l.Close()
			}
			return err
		}
		lns[k] = ln
		peers[k] = "http://" + ln.Addr().String()
	}
	var nodes [clusterNodes]*cluster.Node
	var servers [clusterNodes]*http.Server
	var wg sync.WaitGroup
	defer func() {
		for _, srv := range servers {
			if srv != nil {
				srv.Close()
			}
		}
		wg.Wait()
	}()
	for k := range nodes {
		nd, err := cluster.New(cluster.Config{Self: k, Peers: peers, Procs: clusterP})
		if err != nil {
			for _, l := range lns[k:] {
				l.Close()
			}
			return err
		}
		nodes[k] = nd
		mux := http.NewServeMux()
		mux.Handle("/v1/cluster/", nd.Handler())
		servers[k] = &http.Server{Handler: mux}
		wg.Add(1)
		go func(srv *http.Server, ln net.Listener) {
			defer wg.Done()
			srv.Serve(ln)
		}(servers[k], lns[k])
	}
	k := uint64(0)
	var s uint64
	ds := lr.probe(tr, "cluster.Permuter.Materialize", 3, 0, func() error {
		k++
		s = mix(seed, 70, k)
		return nodes[0].Permuter(clusterN, s).Materialize()
	}, nil)
	lr.set("cluster.materialize_ms", med(ds)/1e6)

	want, err := cgmReference(s, iota)
	if err != nil {
		return err
	}
	p := nodes[0].Permuter(clusterN, s)
	buf := make([]int64, pageLen)
	for _, side := range []struct {
		name string
		slot int
	}{{"local", 0}, {"remote", 1}} {
		lo, hi := nodes[0].ShardRange(clusterN, side.slot)
		if _, err := p.Chunk(buf, lo); err != nil { // node 1 builds its shard on first touch
			return err
		}
		var start int64
		ds := lr.probe(tr, "cluster.Permuter.Chunk/"+side.name, 20, 50*time.Millisecond, func() error {
			k++
			start = lo + int64(mix(seed, 71, k)%uint64(hi-lo-pageLen))
			_, err := p.Chunk(buf, start)
			return err
		}, func() error {
			return errIf(!equalValues(buf, want[start:start+pageLen]), "cluster chunk at %d differs from PermuteSliceCGM", start)
		})
		lr.set("cluster."+side.name+"_chunk_ns_per_item", med(ds)/pageLen)
	}
	return nil
}
