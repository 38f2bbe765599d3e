package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"randperm/internal/service"
	"randperm/internal/xrand"
)

// env is what a workload is run with: the workload seed, how long to
// measure, the tracer (nil when untraced) and an optional injected
// fault, used only by the benchmark's self-test.
type env struct {
	seed  uint64
	dur   time.Duration
	tr    *tracer
	fault string
}

// series is one named end-to-end quantity sampled once per operation.
type series struct {
	name string
	unit string
	vals []float64
}

// result is what one measured pass of a workload produced.
type result struct {
	attempted, failed int64
	setupS            []float64 // seconds, one per set-up repetition
	opMs              []float64 // latency of each operation (see the workload's doc)
	items             int64     // items of operations whose output checked correct
	busy              time.Duration
	series            []*series
	// opP10 reports the operation latency at its 10th percentile
	// rather than its median (see endToEnd).
	opP10 bool
	// notes are scalars recorded with the result: workload constants
	// and diagnostics such as the lookups generator's lateness.
	notes map[string]float64
	// Runtime deltas over the measured window.
	allocBytes uint64
	gcCycles   uint32
	itemsAll   int64 // items attempted, the base of alloc bytes per item
}

// opPercentile is the percentile op_ms reports: 10 or 50.
func (r *result) opPercentile() int {
	if r.opP10 {
		return 10
	}
	return 50
}

// opLatency is op_ms: the operation latency at its percentile.
func (r *result) opLatency() float64 {
	s := summarize(r.opMs)
	if r.opP10 {
		return s.P10
	}
	return s.Median
}

func (r *result) add(name, unit string) *series {
	s := &series{name: name, unit: unit}
	r.series = append(r.series, s)
	return s
}

func (r *result) note(name string, v float64) {
	if r.notes == nil {
		r.notes = map[string]float64{}
	}
	r.notes[name] = v
}

// memWindow brackets a measured window with runtime.ReadMemStats.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

func (w *memWindow) stop(r *result) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - w.before.TotalAlloc
	r.gcCycles = after.NumGC - w.before.NumGC
}

// setupReps is how many times each workload sets up; setup_s is the
// median, steadier than any one set-up.
const setupReps = 5

// timeSetup runs setup setupReps times and records each duration;
// every repetition but the last is torn down again. It returns the last.
func timeSetup[T any](r *result, setup func() (T, error), teardown func(T)) (T, error) {
	var last T
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown(v)
			runtime.GC()
			continue
		}
		last = v
	}
	return last, nil
}

// mix derives an independent 64-bit value from (seed, stream, k), so
// every input the benchmark generates is a function of the workload
// seed alone.
func mix(seed, stream, k uint64) uint64 {
	sm := xrand.NewSplitMix64(seed ^ stream*0x9e3779b97f4a7c15 ^ k*0xbf58476d1ce4e5b9)
	sm.Uint64()
	return sm.Uint64()
}

// permd is one in-process permd handler served on a loopback listener.
type permd struct {
	h    *service.Server
	srv  *http.Server
	base string
	done chan struct{}
}

// listen opens a loopback listener.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func startPermd(ln net.Listener, cfg service.Config) (*permd, error) {
	h, err := service.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	p := &permd{h: h, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.srv.Serve(ln)
	}()
	return p, nil
}

// close stops the server and waits for its serve loop to end.
func (p *permd) close() {
	p.srv.Close()
	<-p.done
}

// httpClient returns a client holding at most two connections, the
// benchmark's load bound. wrap, when non-nil, wraps its transport.
func httpClient(wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}
}

// scrapeMetrics reads base's /metrics and returns the samples by name.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// checksum is a position-sensitive hash of a page of values: any single
// changed value changes it.
func checksum(vals []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ uint64(v)) * 1099511628211
		h ^= h >> 29
	}
	return h ^ uint64(len(vals))
}

// peakRSSMB is the process's peak resident set in MiB (VmHWM), or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// flipPage is the self-test's page fault: an HTTP transport that
// changes the last digit of the first value of one response body once
// armed, leaving the body well formed.
type flipPage struct {
	next  http.RoundTripper
	armed atomic.Bool
}

func (f *flipPage) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || !f.armed.CompareAndSwap(true, false) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if i := bytes.IndexByte(body, '\n'); i > 0 {
		body[i-1] = '0' + (body[i-1]-'0'+1)%10
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// countingListener counts the bytes read from and written to every
// connection it accepts. Armed with flipAt > 0 it also flips one bit of
// the byte at that cumulative written offset: the cluster self-test's
// peer-wire fault.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
	armed         atomic.Bool // a flip is pending; writes take mu only then
	mu            sync.Mutex
	flipAt        int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

func (l *countingListener) bytes() int64 { return l.read.Load() + l.written.Load() }

// armFlip schedules a one-bit flip `after` written bytes from now.
func (l *countingListener) armFlip(after int64) {
	l.mu.Lock()
	l.flipAt = l.written.Load() + after
	l.armed.Store(true)
	l.mu.Unlock()
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	l := c.l
	if !l.armed.Load() {
		l.written.Add(int64(len(b)))
		return c.Conn.Write(b)
	}
	l.mu.Lock()
	w := l.written.Load()
	if at := l.flipAt; l.armed.Load() && at > w && at <= w+int64(len(b)) {
		b = append([]byte(nil), b...)
		b[at-w-1] ^= 1
		l.armed.Store(false)
	}
	l.written.Add(int64(len(b)))
	l.mu.Unlock()
	return c.Conn.Write(b)
}

// timerSlack is about how far past its deadline a nanosleep wakes on
// Linux (the default 50 us timer slack plus the wake-up itself).
const timerSlack = 60 * time.Microsecond

// waitUntil returns at t, within a few microseconds. The Go runtime's
// timers wake no sooner than about 1 ms, which would make an open
// loop's lateness the timer's; a nanosleep blocks only its own thread
// and wakes within the slack, and the last stretch is spun.
func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
