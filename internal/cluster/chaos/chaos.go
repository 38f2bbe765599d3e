// Package chaos is the cluster's fault-injection harness: an
// http.Handler middleware that can kill, stall, corrupt or partition
// any peer at any point in the permutation's round structure, so the
// failure drills in internal/cluster and internal/service can hold the
// cluster to its contract — every shuffle either completes
// byte-identical to the single-process run via replicas, or fails
// atomically with no partial bytes served.
//
// The proxy wraps a node's real handler in process (the drills mount
// it between the httptest listener and the node), which keeps drills
// deterministic: a fault fires on the request that matches its rule,
// not on a timer racing the scheduler. The round structure is
// addressable because it is visible in the URL space — the round-2
// h-relation is exactly the /v1/cluster/exchange endpoint, and
// round-boundary serving is /v1/cluster/chunk — and the victim's
// perspective ("who is calling me") is visible in the X-Permd-From
// header every peer call carries, which is what makes pairwise
// partitions expressible at all.
//
// Faults:
//
//	Kill     abort the connection mid-response (http.ErrAbortHandler):
//	         the client sees a transport error, exactly like a peer
//	         process dying under it. The whole-node form (Proxy.Kill)
//	         simulates process death; a Rule-scoped kill simulates
//	         dying at one round boundary.
//	Stall    hold the request for a duration before serving it,
//	         honouring the client's context — the straggler that
//	         hedged reads exist for. A cancelled (hedge-loser) stall
//	         returns without serving and is counted in Aborted.
//	Corrupt  flip one byte of the response body at a fixed offset —
//	         past the wire header, inside the first source index — so
//	         receiver-side verification (the framing checks) must
//	         catch it.
//	Error    answer 500 without touching the inner handler.
package chaos

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fault is what a matching rule does to the request.
type Fault int

const (
	// None passes the request through (a Rule with Fault None only
	// counts matches).
	None Fault = iota
	// Kill aborts the connection with no response bytes.
	Kill
	// Stall delays the request by Rule.Stall, then serves it normally.
	Stall
	// Corrupt serves the response with one byte flipped at Rule.FlipAt.
	Corrupt
	// Error answers 500 immediately.
	Error
)

// AnyPeer matches requests from every caller (Rule.From).
const AnyPeer = -1

// A Rule scopes one fault to a slice of the traffic. The zero value of
// each field widens the match: empty Path matches every path, From
// AnyPeer matches every caller, After 0 fires from the first matching
// request.
type Rule struct {
	// Path is a substring match on the request path: "exchange" scopes
	// the fault to the round-2 h-relation, "chunk" to round-boundary
	// serving, "join" to the membership handshake. Empty matches all.
	Path string
	// From, when not AnyPeer, matches only requests whose
	// X-Permd-From header names this peer index — the pairwise
	// partition primitive: a Kill rule with From set severs one edge
	// of the cluster graph while every other edge keeps working.
	From int
	// After skips the first After matching requests before the fault
	// fires — "die at the second exchange", the round-boundary dial.
	After int
	// Fault is what happens to matching requests past After.
	Fault Fault
	// Stall is the hold duration for Fault Stall.
	Stall time.Duration
	// FlipAt is the byte offset Fault Corrupt flips (0 means offset
	// 36: past the 36-byte exchange header, inside the first source
	// index).
	FlipAt int64

	seen int // matching requests observed so far
}

// Proxy is the fault-injecting middleware. Wrap a node's handler, then
// script faults with Set/Kill/Revive while the cluster runs. All
// methods are safe for concurrent use.
type Proxy struct {
	inner http.Handler

	mu      sync.Mutex
	rules   []*Rule
	killed  bool
	reqs    map[string]int // per-endpoint request counts (last path segment)
	aborted int
}

// Wrap returns a Proxy in front of h with no faults armed.
func Wrap(h http.Handler) *Proxy {
	return &Proxy{inner: h, reqs: make(map[string]int)}
}

// Set replaces the armed rules. Rules are evaluated in order; the
// first whose Path/From match (and whose After is exhausted) fires.
func (p *Proxy) Set(rules ...Rule) {
	p.mu.Lock()
	p.rules = make([]*Rule, len(rules))
	for i := range rules {
		r := rules[i]
		if r.Fault == Corrupt && r.FlipAt == 0 {
			r.FlipAt = 36
		}
		p.rules[i] = &r
	}
	p.mu.Unlock()
}

// Kill makes the node dark: every request is aborted until Revive.
// This is the process-death simulation — no endpoint distinguishes it
// from kill -9.
func (p *Proxy) Kill() {
	p.mu.Lock()
	p.killed = true
	p.mu.Unlock()
}

// Revive clears Kill and all rules: the node serves normally again, as
// after a process restart.
func (p *Proxy) Revive() {
	p.mu.Lock()
	p.killed = false
	p.rules = nil
	p.mu.Unlock()
}

// Requests returns how many requests (faulted or not) have arrived for
// the endpoint with the given last path segment ("exchange", "chunk",
// "join", "status"); "" totals all endpoints.
func (p *Proxy) Requests(endpoint string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if endpoint == "" {
		total := 0
		for _, v := range p.reqs {
			total += v
		}
		return total
	}
	return p.reqs[endpoint]
}

// Aborted returns how many stalled requests were released by client
// cancellation instead of serving — each one is a hedge (or timeout)
// that worked.
func (p *Proxy) Aborted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.aborted
}

// match returns the fault to apply to r, consuming rule state.
func (p *Proxy) match(r *http.Request) (Fault, time.Duration, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	path := r.URL.Path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		p.reqs[path[i+1:]]++
	}
	if p.killed {
		return Kill, 0, 0
	}
	from := AnyPeer
	if fv := r.Header.Get("X-Permd-From"); fv != "" {
		if k, err := strconv.Atoi(fv); err == nil {
			from = k
		}
	}
	for _, rule := range p.rules {
		if rule.Path != "" && !strings.Contains(path, rule.Path) {
			continue
		}
		if rule.From != AnyPeer && rule.From != from {
			continue
		}
		rule.seen++
		if rule.seen <= rule.After {
			continue
		}
		return rule.Fault, rule.Stall, rule.FlipAt
	}
	return None, 0, 0
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fault, stall, flipAt := p.match(r)
	switch fault {
	case Kill:
		panic(http.ErrAbortHandler)
	case Error:
		http.Error(w, "chaos: injected failure", http.StatusInternalServerError)
		return
	case Stall:
		select {
		case <-time.After(stall):
		case <-r.Context().Done():
			p.mu.Lock()
			p.aborted++
			p.mu.Unlock()
			return
		}
	case Corrupt:
		w = &corruptWriter{ResponseWriter: w, flipAt: flipAt}
	}
	p.inner.ServeHTTP(w, r)
}

// corruptWriter flips one byte of the response body at offset flipAt.
type corruptWriter struct {
	http.ResponseWriter
	off    int64
	flipAt int64
}

func (c *corruptWriter) Write(b []byte) (int, error) {
	if c.off <= c.flipAt && c.flipAt < c.off+int64(len(b)) {
		// Copy before flipping: the caller's buffer is not ours to
		// scribble on (bufio reuses it).
		mod := append([]byte(nil), b...)
		mod[c.flipAt-c.off] ^= 0xFF
		b = mod
	}
	c.off += int64(len(b))
	return c.ResponseWriter.Write(b)
}
