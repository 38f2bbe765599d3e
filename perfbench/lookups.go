package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"randperm"
	"randperm/internal/service"
	"randperm/internal/workload"
	"randperm/permclient"
)

// The lookups workload sends a 1:1 mix of /v1/assign (three-bucket
// spec, n = 2^40) and bijective /v1/perm/{seed}/at to one permd, with
// per-client quota metering on at a budget the load never exhausts.
// The answers are one line each, so request parsing, quota, the handle
// cache, the event-bus middleware and HTTP are nearly all the work; a
// wire-codec change predicts no change here.
//
// The window has two parts. For its first three quarters one client
// sends lookups back to back; one operation is one lookup, timed from
// its send to its answer, and this closed loop gives op_ms at its 10th
// percentile. For the last quarter an open loop at a fixed rate, about
// half the closed-loop capacity of two clients (27 000-32 000 lookups/s
// on a 2-core Intel Xeon KVM guest), sends through both clients: two
// goroutines take request slots in order and each request's latency is
// timed from the moment it was due, so a stall also charges the
// requests queued behind it. The open loop gives items_per_s, the
// lookups answered correctly per second at that offered rate; its
// latency is recorded as a series only, because each of its requests
// finds the machine idle and so also carries how fast the host wakes an
// idle CPU, which moved its median by a third between runs of the same
// code on that guest. The closed loop's throughput is recorded as a
// note: it follows the host's speed and moved by 30% between runs.
//
// Every answer is compared with workload.Assign or Permuter.At outside
// its timed call: the closed loop's as it arrives, so the loop keeps
// only latencies and its memory does not grow with the host's speed,
// the open loop's after the window.
const (
	lookupsN       = int64(1) << 40
	lookupsSpec    = "control:5,treat_a:3,treat_b:2"
	lookupsRate    = 15000 // requests per second in the open loop
	lookupsClients = 2
	lookupsWarmup  = 1500 // open-loop lookups during set-up, 0.1 s at the rate
)

type lookupReq struct {
	assign bool
	arg    int64 // the user id of an assign, the index of an at
	got    int64 // the bucket index or the value answered
	ok     bool
}

type lookupsRig struct {
	srv *permd
	cls [lookupsClients]*permclient.Client
	hcs [lookupsClients]*http.Client
}

func (g *lookupsRig) close() {
	for _, hc := range g.hcs {
		hc.CloseIdleConnections()
	}
	g.srv.close()
}

func lookupSeeds(seed uint64) (assign, at uint64) { return mix(seed, 20, 0), mix(seed, 20, 1) }

// lookup sends request q through client cl.
func lookup(ctx context.Context, cl *permclient.Client, seed uint64, q *lookupReq) error {
	assignSeed, atSeed := lookupSeeds(seed)
	if q.assign {
		a, err := cl.Assign(ctx, assignSeed, lookupsN, q.arg, lookupsSpec)
		q.got = int64(a.Index)
		return err
	}
	v, err := cl.At(ctx, atSeed, lookupsN, q.arg)
	q.got = v
	return err
}

// newLookupReq is request k of request stream `stream`: assigns and
// point reads alternate, at seeded uniform ids and indexes.
func newLookupReq(seed, stream uint64, k int) lookupReq {
	return lookupReq{assign: k%2 == 0, arg: int64(mix(seed, 21+stream, uint64(k)) % uint64(lookupsN))}
}

// startLookups boots a permd with quota metering on, its two clients,
// and warms both up with a short checked open loop.
func startLookups(ctx context.Context, seed uint64) (*lookupsRig, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	budget := service.QuotaSpec{Rate: 100 * lookupsRate, Burst: 100 * lookupsRate}
	srv, err := startPermd(ln, service.Config{Quota: service.QuotaConfig{Default: budget}})
	if err != nil {
		return nil, err
	}
	g := &lookupsRig{srv: srv}
	for c := range g.cls {
		g.hcs[c] = httpClient(nil)
		g.cls[c] = permclient.New(permclient.Config{BaseURL: srv.base, HTTPClient: g.hcs[c], ClientID: fmt.Sprintf("perfbench-%d", c), MaxRetries: -1})
	}
	// Warm-up: a short open loop at the workload's rate, so set-up time
	// is its schedule rather than however fast a closed loop happens
	// to run.
	ol := openLoop(ctx, g, seed, 1, lookupsWarmup*time.Second/lookupsRate, nil)
	if bad, err := checkLookups(seed, ol.reqs); err != nil || bad > 0 {
		g.close()
		return nil, fmt.Errorf("lookups warm-up: %d wrong or failed answers (%v)", bad, err)
	}
	return g, nil
}

func runLookups(e *env) (*result, error) {
	r := &result{}
	ctx := context.Background()
	g, err := timeSetup(r, func() (*lookupsRig, error) { return startLookups(ctx, e.seed) }, (*lookupsRig).close)
	if err != nil {
		return nil, err
	}
	defer g.close()
	chk, err := newLookupChecker(e.seed)
	if err != nil {
		return nil, err
	}

	mem := startMem()
	cl := closedLoop(ctx, g, chk, e.seed, 0, e.dur*3/4, e.tr)
	ol := openLoop(ctx, g, e.seed, 3, e.dur-e.dur*3/4, e.tr)
	mem.stop(r)
	r.add("lookup_ms", "ms").vals = cl.lat
	r.add("open_lookup_ms", "ms").vals = ol.lat
	r.add("loadgen_late_us", "us").vals = ol.late
	r.opMs, r.opP10 = cl.lat, true
	badOpen := chk.count(ol.reqs)
	r.attempted = int64(len(cl.lat) + len(ol.reqs))
	r.failed = cl.bad + badOpen
	r.items = int64(len(ol.reqs)) - badOpen
	r.busy = ol.elapsed
	r.itemsAll = r.attempted
	r.note("rate_per_s", lookupsRate)
	r.note("closed_loop_per_s", float64(len(cl.lat))/cl.elapsed.Seconds())
	r.note("n", float64(lookupsN))
	return r, nil
}

// openLoopRun is what one open-loop pass sent and measured.
type openLoopRun struct {
	reqs    []lookupReq
	lat     []float64 // ms from each request's due time to its answer
	late    []float64 // us from each request's due time to its send
	elapsed time.Duration
}

// closedLoopRun is what one closed-loop pass measured.
type closedLoopRun struct {
	lat     []float64 // ms from each request's send to its answer
	bad     int64     // answers that failed or differ
	elapsed time.Duration
}

// closedLoop sends request stream `stream` back to back through the
// rig's first client for dur, checking each answer after its timed call.
func closedLoop(ctx context.Context, g *lookupsRig, chk *lookupChecker, seed, stream uint64, dur time.Duration, tr *tracer) closedLoopRun {
	var cl closedLoopRun
	began := time.Now()
	for k := 0; time.Since(began) < dur; k++ {
		q := newLookupReq(seed, stream, k)
		id, sent := tr.begin()
		q.ok = lookup(ctx, g.cls[0], seed, &q) == nil
		done := time.Now()
		tr.end(id, 0, int64(k), lookupSpanName(q), sent)
		cl.lat = append(cl.lat, float64(done.Sub(sent).Nanoseconds())/1e6)
		if chk.wrong(q) {
			cl.bad++
		}
	}
	cl.elapsed = time.Since(began)
	return cl
}

func lookupSpanName(q lookupReq) string {
	if q.assign {
		return "permclient.Client.Assign"
	}
	return "permclient.Client.At"
}

// openLoop sends request stream `stream` at lookupsRate for dur through
// the rig's two clients. Each client takes the next request slot,
// sleeps until it is due and sends it.
func openLoop(ctx context.Context, g *lookupsRig, seed, stream uint64, dur time.Duration, tr *tracer) openLoopRun {
	total := max(int(lookupsRate*dur.Seconds()), 1)
	ol := openLoopRun{reqs: make([]lookupReq, total), lat: make([]float64, total), late: make([]float64, total)}
	for k := range ol.reqs {
		ol.reqs[k] = newLookupReq(seed, stream, k)
	}
	interval := time.Second / lookupsRate
	var next atomic.Int64
	began := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < lookupsClients; c++ {
		wg.Add(1)
		go func(cl *permclient.Client) {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < total; k = int(next.Add(1) - 1) {
				due := began.Add(time.Duration(k) * interval)
				waitUntil(due)
				id, sent := tr.begin()
				q := &ol.reqs[k]
				q.ok = lookup(ctx, cl, seed, q) == nil
				done := time.Now()
				tr.end(id, 0, int64(k), lookupSpanName(*q), sent)
				ol.lat[k] = float64(done.Sub(due).Nanoseconds()) / 1e6
				ol.late[k] = float64(sent.Sub(due).Nanoseconds()) / 1e3
			}
		}(g.cls[c])
	}
	wg.Wait()
	ol.elapsed = time.Since(began)
	return ol
}

// lookupChecker answers lookups with the library, to check the
// served answers against.
type lookupChecker struct {
	assignSeed uint64
	spec       *workload.Spec
	pm         *randperm.Permuter
}

func newLookupChecker(seed uint64) (*lookupChecker, error) {
	assignSeed, atSeed := lookupSeeds(seed)
	spec, err := workload.ParseAssignSpec(lookupsSpec)
	if err != nil {
		return nil, err
	}
	pm, err := randperm.NewPermuter(lookupsN, randperm.Options{Seed: atSeed, Backend: randperm.BackendBijective})
	if err != nil {
		return nil, err
	}
	return &lookupChecker{assignSeed: assignSeed, spec: spec, pm: pm}, nil
}

// wrong reports whether q failed or its answer differs from the library's.
func (c *lookupChecker) wrong(q lookupReq) bool {
	if !q.ok {
		return true
	}
	if q.assign {
		idx, _ := workload.Assign(c.spec, c.assignSeed, lookupsN, q.arg)
		return int64(idx) != q.got
	}
	return c.pm.At(q.arg) != q.got
}

// count returns how many of reqs are wrong.
func (c *lookupChecker) count(reqs []lookupReq) int64 {
	var bad int64
	for _, q := range reqs {
		if c.wrong(q) {
			bad++
		}
	}
	return bad
}

// checkLookups compares every answer with the library's and returns
// the number that failed or differ.
func checkLookups(seed uint64, reqs []lookupReq) (int64, error) {
	chk, err := newLookupChecker(seed)
	if err != nil {
		return 0, err
	}
	return chk.count(reqs), nil
}
