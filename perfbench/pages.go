package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"randperm"
	"randperm/internal/service"
	"randperm/permclient"
)

// The pages workload: a closed loop of two clients, each pulling
// 64Ki-value /v1/perm/{seed}/chunk pages through permclient.Client.Chunk
// at seeded random aligned starts of its own bijective n = 2^40
// permutation, from a single-node permd on loopback. This is the bulk
// path data loaders pay for: decimal encoding, Feistel evaluation and
// the syscalls and copies between them, so wire-codec and Feistel
// changes show here.
//
// One operation is one page. Each page is checksummed as it arrives and
// compared, after the measured window, with in-process Permuter.Chunk
// over the same range; only pages that match count toward items_per_s.
const (
	pagesN       = int64(1) << 40
	pageLen      = 1 << 16
	pagesClients = 2
	pagesWarmup  = 16 // pages per client during set-up
)

type pageRecord struct {
	start int64
	sum   uint64
	ok    bool
}

type pagesRig struct {
	srv   *permd
	cl    *permclient.Client
	hc    *http.Client
	fault *flipPage
}

func (g *pagesRig) close() {
	g.hc.CloseIdleConnections()
	g.srv.close()
}

func pageSeed(seed uint64, client int) uint64 { return mix(seed, 10, uint64(client)) }

// startPages boots a single-node permd and a client of it, and warms
// both clients' page streams up. fault "page" installs the self-test's
// corrupting transport, disarmed.
func startPages(ctx context.Context, seed uint64, fault string) (*pagesRig, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	srv, err := startPermd(ln, service.Config{})
	if err != nil {
		return nil, err
	}
	g := &pagesRig{srv: srv}
	var wrap func(http.RoundTripper) http.RoundTripper
	if fault == "page" {
		wrap = func(next http.RoundTripper) http.RoundTripper {
			g.fault = &flipPage{next: next}
			return g.fault
		}
	}
	g.hc = httpClient(wrap)
	g.cl = permclient.New(permclient.Config{BaseURL: srv.base, HTTPClient: g.hc, MaxRetries: -1})
	var wg sync.WaitGroup
	errs := make([]error, pagesClients)
	for c := 0; c < pagesClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < pagesWarmup && errs[c] == nil; k++ {
				_, errs[c] = g.cl.Chunk(ctx, pageSeed(seed, c), pagesN, int64(k)*pageLen, pageLen)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			g.close()
			return nil, fmt.Errorf("pages warm-up: %w", err)
		}
	}
	return g, nil
}

func runPages(e *env) (*result, error) {
	r := &result{}
	ctx := context.Background()
	g, err := timeSetup(r, func() (*pagesRig, error) { return startPages(ctx, e.seed, e.fault) }, (*pagesRig).close)
	if err != nil {
		return nil, err
	}
	defer g.close()
	if g.fault != nil {
		g.fault.armed.Store(true)
	}

	lat := r.add("page_ms", "ms")
	recs := make([][]pageRecord, pagesClients)
	lats := make([][]float64, pagesClients)
	mem := startMem()
	began := time.Now()
	deadline := began.Add(e.dur)
	var wg sync.WaitGroup
	for c := 0; c < pagesClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seed := pageSeed(e.seed, c)
			for k := uint64(0); k == 0 || time.Now().Before(deadline); k++ {
				start := int64(mix(e.seed, 11+uint64(c), k)%uint64(pagesN/pageLen)) * pageLen
				op := int64(c)<<32 | int64(k)
				var vals []int64
				var err error
				d := e.tr.call(0, op, "permclient.Client.Chunk", func() {
					vals, err = g.cl.Chunk(ctx, seed, pagesN, start, pageLen)
				})
				rec := pageRecord{start: start, ok: err == nil && len(vals) == pageLen}
				if rec.ok {
					rec.sum = checksum(vals)
				}
				recs[c] = append(recs[c], rec)
				lats[c] = append(lats[c], float64(d.Nanoseconds())/1e6)
			}
		}(c)
	}
	wg.Wait()
	r.busy = time.Since(began)
	mem.stop(r)
	for c := range lats {
		lat.vals = append(lat.vals, lats[c]...)
	}
	r.opMs = lat.vals

	// Verify every page against the library, outside the window.
	var bad [pagesClients]int64
	for c := 0; c < pagesClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]int64, pageLen)
			pm, err := randperm.NewPermuter(pagesN, randperm.Options{Seed: pageSeed(e.seed, c), Backend: randperm.BackendBijective})
			for _, rec := range recs[c] {
				if err != nil || !rec.ok {
					bad[c]++
					continue
				}
				if n, err := pm.Chunk(buf, rec.start); err != nil || n != pageLen || checksum(buf) != rec.sum {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range recs {
		r.attempted += int64(len(recs[c]))
		r.failed += bad[c]
	}
	r.itemsAll = r.attempted * pageLen
	r.items = (r.attempted - r.failed) * pageLen
	r.note("n", float64(pagesN))
	r.note("page_len", pageLen)
	r.note("clients", pagesClients)
	return r, nil
}
