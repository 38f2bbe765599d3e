package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/engine"
	"randperm/internal/events"
)

// publishServeEvent reports a hedge or failover decision on a routed
// read (or an exchange failover) as a cluster_round event: Peer is the
// replica being tried, Round names the phase, Detail the decision.
func (nd *Node) publishServeEvent(peer, round, slot int, detail string) {
	ev := events.New(events.TypeClusterRound)
	ev.Peer = peer
	ev.Round = round
	ev.Slot = slot
	ev.Detail = detail
	nd.publish(ev)
}

// The exchange wire format (one round-2 h-relation leg, server -> one
// requesting peer) is length-prefixed little-endian binary:
//
//	exchangeHeader                                   36 bytes:
//	  magic  "RPX2"                                    4 bytes
//	  seed   uint64 | n int64                          config echo —
//	  p, nodes, from, to  4 x int32                    verified by both ends
//	then, for each source block i of slot `from`, ascending:
//	  i      int32
//	  for each target block j of slot `to`, ascending:
//	    count  int64        the matrix entry a_ij this segment realizes
//	    count x int64       the routed element payloads, in source order
//
// The counts ARE the server's matrix row entries, so the exchange
// carries matrix rows and payloads in one stream; the requester checks
// every count against its own locally sampled matrix and refuses the
// response on any mismatch — a diverging seed, width or cluster layout
// is an error, never a silently mixed permutation. `from` and `to` are
// shard slots, not node indices: with replication any duty holder of
// `from` serves the identical bytes, because the payloads are drawn
// from the slot's streams, not from node state. (RPX1 was the
// pre-replication format whose from/to were node indices; the magic
// bump makes a mixed-version cluster fail loudly on the first
// exchange.) /v1/cluster/chunk bodies are bare payloads, encoded and
// decoded by the same bulk calls (writeInt64s, readInt64s).

const exchangeMagic = "RPX2"

// exchangeHeader is the RPX2 preamble, field for field.
type exchangeHeader struct {
	Magic              [4]byte
	Seed               uint64
	N                  int64
	P, Nodes, From, To int32
}

// exchangeHeader returns the preamble of the from -> to leg of (seed, n).
func (nd *Node) exchangeHeader(n int64, seed uint64, from, to int) exchangeHeader {
	return exchangeHeader{
		Magic: [4]byte([]byte(exchangeMagic)), Seed: seed, N: n,
		P: int32(nd.cfg.Procs), Nodes: int32(len(nd.cfg.Peers)), From: int32(from), To: int32(to),
	}
}

// headerFieldEnds are the header offsets where a field ends: a body cut
// there reads as io.EOF, one cut inside a field as io.ErrUnexpectedEOF.
var headerFieldEnds = []int{4, 12, 20, 24, 28, 32}

// Peer-call headers: every request a node sends carries its own index
// and its current health view; every /v1/cluster/* response carries the
// answering node's view. Both directions are absorbed, which is what
// makes the gossip free — it rides calls the nodes were making anyway.
const (
	fromHeader   = "X-Permd-From"
	healthHeader = "X-Permd-Health"
)

// Round numbers for PeerError, matching the paper's round structure.
// Rounds 1 and 3 are local and cannot produce peer errors; calls
// outside the build (routed chunk reads, join handshakes) report
// RoundServe.
const (
	RoundServe    = 0 // outside the three rounds: shard-local chunk serving or join
	RoundExchange = 2 // the round-2 h-relation exchange
)

// PeerError reports a failed call to a cluster peer with enough context
// to act on without parsing strings: the peer's index and address, the
// algorithm round in flight, and the operation. It wraps the transport
// or protocol error underneath, so errors.As surfaces it from anywhere
// in a Chunk/Materialize error chain.
type PeerError struct {
	Node  int    // the peer's index in Config.Peers
	Addr  string // the peer's base URL
	Round int    // RoundExchange during a shard build's h-relation, else RoundServe
	Op    string // "exchange", "chunk" or "join"
	Err   error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: %s with node %d (%s) in round %d: %v", e.Op, e.Node, e.Addr, e.Round, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// peerError wraps err for a failed call to peer k.
func (nd *Node) peerError(k, round int, op string, err error) *PeerError {
	return &PeerError{Node: k, Addr: nd.cfg.Peers[k], Round: round, Op: op, Err: err}
}

// peerGet performs one GET against peer k with the cluster headers
// attached, records the outcome in the health tracker, and absorbs the
// peer's gossiped view from the response. A context cancelled by the
// caller (a hedge loser) is not held against the peer's health. Any
// 2xx-4xx answer counts as alive — a config refusal still proves the
// peer is up; transport errors and 5xx count as failures.
func (nd *Node) peerGet(ctx context.Context, k int, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(fromHeader, strconv.Itoa(nd.cfg.Self))
	if g := nd.health.gossip(); g != "" {
		req.Header.Set(healthHeader, g)
	}
	resp, err := nd.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			nd.health.failure(k)
		}
		return nil, err
	}
	nd.health.absorb(resp.Header.Get(healthHeader), k, nd.cfg.Self)
	if resp.StatusCode >= 500 {
		nd.health.failure(k)
	} else {
		nd.health.success(k)
	}
	return resp, nil
}

// peerCall is peerGet for calls that need a 200: a transport failure or
// any other status (with up to 512 bytes of its body) is a *PeerError.
func (nd *Node) peerCall(ctx context.Context, k, round int, op, url string) (*http.Response, error) {
	resp, err := nd.peerGet(ctx, k, url)
	if err != nil {
		return nil, nd.peerError(k, round, op, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, nd.peerError(k, round, op, fmt.Errorf("%s: %s", resp.Status, msg))
	}
	return resp, nil
}

// Handler returns the node's peer-facing API, rooted at /v1/cluster/:
//
//	GET /v1/cluster/exchange?n=&seed=&p=&nodes=&from=&to=  round-2 payloads, source slot `from` -> target slot `to`
//	GET /v1/cluster/chunk?n=&seed=&start=&len=             replicated-shard values, binary LE int64
//	GET /v1/cluster/join?node=&hash=                       geometry handshake (see join.go)
//	GET /v1/cluster/status                                 JSON node/cluster introspection
//
// Every response carries this node's health view in X-Permd-Health, and
// every request's view is absorbed — the gossip layer. Mount it on the
// same server that serves the public permd API (the service layer does)
// or on its own listener.
func (nd *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/exchange", nd.handleExchange)
	mux.HandleFunc("GET /v1/cluster/chunk", nd.handleChunk)
	mux.HandleFunc("GET /v1/cluster/join", nd.handleJoin)
	mux.HandleFunc("GET /v1/cluster/status", nd.handleStatus)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Gossip piggyback, both directions. A request from a peer is
		// also first-hand evidence the peer is alive.
		if fv := r.Header.Get(fromHeader); fv != "" {
			if k, err := strconv.Atoi(fv); err == nil && k >= 0 && k < len(nd.cfg.Peers) && k != nd.cfg.Self {
				nd.health.success(k)
				nd.health.absorb(r.Header.Get(healthHeader), k, nd.cfg.Self)
			}
		}
		if g := nd.health.gossip(); g != "" {
			w.Header().Set(healthHeader, g)
		}
		mux.ServeHTTP(w, r)
	})
}

// queryCount parses a required non-negative decimal query parameter.
func queryCount(r *http.Request, name string) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing %s", name)
	}
	x, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: want a decimal integer", name, v)
	}
	if x < 0 {
		return 0, fmt.Errorf("bad %s=%d: want a non-negative decimal integer", name, x)
	}
	return x, nil
}

// queryPerm parses the (n, seed) of a peer request. n is gated by
// Config.MaxN: the peer-facing endpoints must not accept work the
// public API would refuse.
func (nd *Node) queryPerm(r *http.Request) (n int64, seed uint64, err error) {
	if n, err = queryCount(r, "n"); err != nil {
		return 0, 0, err
	}
	if nd.cfg.MaxN > 0 && n > nd.cfg.MaxN {
		return 0, 0, fmt.Errorf("n=%d exceeds this node's bound %d", n, nd.cfg.MaxN)
	}
	v := r.URL.Query().Get("seed")
	if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad seed %q", v)
	}
	return n, seed, nil
}

// queryIndex parses a required index into the peer list — a shard slot
// or a node, named by what in the error.
func (nd *Node) queryIndex(r *http.Request, name, what string) (int, error) {
	x, err := queryCount(r, name)
	if err != nil || x >= int64(len(nd.cfg.Peers)) {
		return 0, fmt.Errorf("bad %s=%q: want %s in [0, %d)", name, r.URL.Query().Get(name), what, len(nd.cfg.Peers))
	}
	return int(x), nil
}

// handleExchange serves round 2 to one requesting peer: the label
// arrangements of source slot `from`'s blocks are drawn from their
// streams and the payload segments destined for target slot `to`'s
// blocks are streamed out, each prefixed with the matrix entry it
// realizes. The node serves any source slot it replicates — the
// arrangements are derived from the slot's streams, so every duty
// holder ships identical bytes — and refuses slots outside its duty,
// which is what keeps R=1 failures honest: a dead primary's
// contributions are then not derivable from anyone, and the build
// errors instead of silently recomputing the whole cluster's work on
// one box.
//
// The handler is deliberately stateless: the matrix and arrangements
// are recomputed per request rather than cached per (n, seed). With
// N-1 requesters per permutation that redoes the O(n/N) arrangement
// work N-1 times per slot — the trade is bounded peer-facing memory
// (O(m_i) per in-flight request, no second cache to size against the
// shard LRU) for CPU that is already dwarfed by a shard build's wire
// traffic. If exchange CPU ever dominates a profile, the fix is a
// per-(n, seed) arrangement cache beside the shard cache.
func (nd *Node) handleExchange(w http.ResponseWriter, r *http.Request) {
	nd.exchangeReqs.Add(1)
	q := r.URL.Query()
	n, seed, err := nd.queryPerm(r)
	if err != nil {
		http.Error(w, "cluster: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Config echo: a requester with a different width or layout gets a
	// conflict naming both values, the cluster's first line of defense
	// against serving bytes from a different permutation.
	if pv := q.Get("p"); pv != strconv.Itoa(nd.cfg.Procs) {
		http.Error(w, fmt.Sprintf("cluster: decomposition width mismatch: peer p=%s, this node p=%d", pv, nd.cfg.Procs), http.StatusConflict)
		return
	}
	if nv := q.Get("nodes"); nv != strconv.Itoa(len(nd.cfg.Peers)) {
		http.Error(w, fmt.Sprintf("cluster: cluster size mismatch: peer nodes=%s, this node nodes=%d", nv, len(nd.cfg.Peers)), http.StatusConflict)
		return
	}
	from, err := nd.queryIndex(r, "from", "a shard slot")
	if err != nil {
		http.Error(w, "cluster: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !nd.hasDuty(nd.cfg.Self, from) {
		http.Error(w, fmt.Sprintf("cluster: this node does not replicate source slot %d (replicas=%d)", from, nd.cfg.Replicas), http.StatusForbidden)
		return
	}
	to, err := nd.queryIndex(r, "to", "a shard slot")
	if err != nil {
		http.Error(w, "cluster: "+err.Error(), http.StatusBadRequest)
		return
	}

	p, nodes := nd.cfg.Procs, len(nd.cfg.Peers)
	sizes := core.EvenBlocks(n, p)
	off := blockOffsets(n, p)
	streams := engine.CGMStreams(seed, p)
	a := commat.SampleSeq(streams[0], sizes, sizes)
	sLo, sHi := blockSpan(p, nodes, from) // the served source slot's blocks
	tLo, tHi := blockSpan(p, nodes, to)   // the requested target slot's blocks

	w.Header().Set("Content-Type", "application/octet-stream")
	bw := bufio.NewWriterSize(w, 1<<15)
	binary.Write(bw, binary.LittleEndian, nd.exchangeHeader(n, seed, from, to))
	var shipped int64
	for i := sLo; i < sHi; i++ {
		segs := make([][]int64, tHi-tLo)
		for j := range segs {
			segs[j] = make([]int64, a.At(i, tLo+j))
		}
		routeRow(streams[1+i], a.Row(i), off[i], tLo, segs)
		binary.Write(bw, binary.LittleEndian, int32(i))
		for _, seg := range segs {
			binary.Write(bw, binary.LittleEndian, int64(len(seg)))
			if writeInt64s(bw, seg) != nil {
				return // requester gone
			}
			shipped += int64(len(seg))
		}
	}
	if bw.Flush() == nil { // write errors stick in bw: all of it went out
		nd.exchangeItems.Add(shipped)
	}
}

// fetchExchange performs one requester leg of round 2: it pulls the
// payloads source slot `from`'s blocks route into target slot `to`'s
// blocks from one of `from`'s duty holders — ranked by observed health,
// primary first, failing over on any error — and decodes them into the
// windows segs hands out. A failed attempt may leave segments behind;
// the next overwrites them with the same values, and a failed build
// drops the shard. The returned chain keeps every attempt's *PeerError,
// so a fully dead replica set is diagnosable per peer.
func (nd *Node) fetchExchange(from, to int, n int64, seed uint64, segs func(i int) [][]int64) error {
	path := fmt.Sprintf("/v1/cluster/exchange?n=%d&seed=%d&p=%d&nodes=%d&from=%d&to=%d",
		n, seed, nd.cfg.Procs, len(nd.cfg.Peers), from, to)
	var attempts []error
	for try, k := range nd.health.rank(nd.replicasOf(from)) {
		if try > 0 {
			nd.failovers.Add(1)
			nd.publishServeEvent(k, RoundExchange, from, "failover")
		}
		resp, err := nd.peerCall(context.Background(), k, RoundExchange, "exchange", nd.cfg.Peers[k]+path)
		if err == nil {
			err = decodeExchange(resp.Body, nd.exchangeHeader(n, seed, from, to), segs)
			resp.Body.Close()
			if err == nil {
				return nil
			}
			err = nd.peerError(k, RoundExchange, "exchange", err)
		}
		attempts = append(attempts, err)
	}
	return fmt.Errorf("cluster: no replica of source slot %d answered the round-2 exchange: %w", from, errors.Join(attempts...))
}

// decodeExchange reads one RPX2 body whose header must equal want into
// the windows segs(i), one per target block of slot want.To. A window
// is as long as the local matrix entry it realizes, and each count is
// checked against it before the payload is read into it.
func decodeExchange(r io.Reader, want exchangeHeader, segs func(i int) [][]int64) error {
	br := bufio.NewReaderSize(r, 1<<15)
	var raw [36]byte
	got, err := io.ReadFull(br, raw[:])
	if got >= len(exchangeMagic) && string(raw[:4]) != exchangeMagic {
		return fmt.Errorf("bad magic %q", raw[:4])
	}
	if err != nil {
		if slices.Contains(headerFieldEnds, got) {
			err = io.EOF
		}
		return fmt.Errorf("reading header: %v", err)
	}
	var h exchangeHeader
	binary.Decode(raw[:], binary.LittleEndian, &h) // raw is exactly the header's size
	if h != want {
		return fmt.Errorf("config echo mismatch: got (seed=%d n=%d p=%d nodes=%d from=%d to=%d), want (%d %d %d %d %d %d)",
			h.Seed, h.N, h.P, h.Nodes, h.From, h.To, want.Seed, want.N, want.P, want.Nodes, want.From, want.To)
	}

	p, nodes := int(want.P), int(want.Nodes)
	sLo, sHi := blockSpan(p, nodes, int(want.From))
	tLo, _ := blockSpan(p, nodes, int(want.To))
	for i := sLo; i < sHi; i++ {
		var gotI int32
		if err := binary.Read(br, binary.LittleEndian, &gotI); err != nil {
			return fmt.Errorf("reading source header: %v", err)
		}
		if int(gotI) != i {
			return fmt.Errorf("source block sequence broken: got %d, want %d", gotI, i)
		}
		for j, seg := range segs(i) {
			var count uint64
			if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
				return fmt.Errorf("reading segment count: %v", err)
			}
			// The matrix-row check: the shipped count must realize the
			// entry this node sampled locally.
			if local := int64(len(seg)); int64(count) != local {
				return fmt.Errorf("matrix disagreement at a[%d][%d]: peer shipped %d values, local matrix says %d — the nodes are not running the same (seed, n, p, nodes)", i, tLo+j, count, local)
			}
			if _, err := readInt64s(br, seg); err != nil {
				return fmt.Errorf("reading segment payload: %v", err)
			}
		}
	}
	return nil
}

// writeInt64s writes vs to bw as little-endian words, encoded straight
// into bw's free space a buffer at a time.
func writeInt64s(bw *bufio.Writer, vs []int64) error {
	for len(vs) > 0 {
		if bw.Available() < 8 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		m := min(len(vs), bw.Available()/8)
		b, _ := binary.Append(bw.AvailableBuffer(), binary.LittleEndian, vs[:m])
		if _, err := bw.Write(b); err != nil {
			return err
		}
		vs = vs[m:]
	}
	return nil
}

// readInt64s fills dst with little-endian words decoded straight out of
// br's buffer and returns how many it decoded. A short body fails the
// way a word-by-word io.ReadFull would: io.EOF when it ends between two
// words, io.ErrUnexpectedEOF when it ends inside one.
func readInt64s(br *bufio.Reader, dst []int64) (int, error) {
	done := 0
	for done < len(dst) {
		b, err := br.Peek(min(8*(len(dst)-done), br.Size()))
		m := len(b) / 8
		binary.Decode(b, binary.LittleEndian, dst[done:done+m]) // b holds the m words
		br.Discard(8 * m)                                       // already buffered by Peek
		done += m
		if err != nil {
			if err == io.EOF && len(b)%8 != 0 {
				err = io.ErrUnexpectedEOF
			}
			return done, err
		}
	}
	return done, nil
}

// handleChunk serves values of the (seed, n) permutation strictly from
// the shard slots this node replicates, as little-endian int64s: the
// peer-to-peer leg of a routed Permuter.Chunk. A range that leaves
// every replicated slot is refused (416) — the caller, not this node,
// is responsible for routing, which is what makes proxy loops
// impossible by construction.
func (nd *Node) handleChunk(w http.ResponseWriter, r *http.Request) {
	nd.chunkReqs.Add(1)
	n, seed, err := nd.queryPerm(r)
	if err != nil {
		http.Error(w, "cluster: "+err.Error(), http.StatusBadRequest)
		return
	}
	start, err := queryCount(r, "start")
	if err != nil {
		http.Error(w, "cluster: "+err.Error(), http.StatusBadRequest)
		return
	}
	length, err := queryCount(r, "len")
	if err != nil {
		http.Error(w, "cluster: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Find the replicated slot containing the range. length is compared
	// against the remaining extent, never added to start: start+length
	// could overflow int64 and slip past the guard.
	slot := -1
	for _, s := range nd.duties(nd.cfg.Self) {
		lo, hi := nd.ShardRange(n, s)
		if start >= lo && start <= hi && length <= hi-start {
			slot = s
			break
		}
	}
	if slot < 0 {
		http.Error(w, fmt.Sprintf("cluster: range starting at %d for %d values outside every shard this node replicates (node %d, replicas %d)",
			start, length, nd.cfg.Self, nd.cfg.Replicas), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	sh, err := nd.shard(slot, n, seed)
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: building shard: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	bw := bufio.NewWriterSize(w, 1<<15)
	if writeInt64s(bw, sh.Vals[start-sh.Start:start-sh.Start+length]) != nil || bw.Flush() != nil {
		return // requester gone: nothing counted
	}
	nd.chunkItems.Add(length)
}

// fetchChunk pulls values [start, start+len(dst)) of slot's shard from
// peer k into dst. ctx is the hedging seam: a losing racer is
// cancelled here, and the cancellation is not held against k's health.
func (nd *Node) fetchChunk(ctx context.Context, k int, n int64, seed uint64, dst []int64, start int64) error {
	u := fmt.Sprintf("%s/v1/cluster/chunk?n=%d&seed=%d&start=%d&len=%d",
		nd.cfg.Peers[k], n, seed, start, len(dst))
	resp, err := nd.peerCall(ctx, k, RoundServe, "chunk", u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if got, err := readInt64s(bufio.NewReaderSize(resp.Body, 1<<15), dst); err != nil {
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF // the whole body is one read
		}
		return nd.peerError(k, RoundServe, "chunk", fmt.Errorf("short read: %w", err))
	}
	nd.proxyReqs.Add(1)
	nd.proxyItems.Add(int64(len(dst)))
	return nil
}

// readRemoteSpan fills dst with [start, start+len(dst)) of slot's
// shard from the slot's replica set: candidates ranked by observed
// health (a peer marked down is tried last, so routing has already
// skipped it before any timer runs), primary replica breaking ties.
// The first candidate is fired immediately; if it has not answered
// within the hedge budget the next one is raced against it, first
// answer wins and the loser is cancelled via its context; any error
// advances to the next candidate at once. Each racer fills a private
// buffer so a cancelled loser can never tear the winner's bytes — not
// that it could change them: every replica serves identical values,
// which is why hedging is safe at all.
func (nd *Node) readRemoteSpan(slot int, n int64, seed uint64, dst []int64, start int64) error {
	cands := nd.health.rank(nd.replicasOf(slot))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type result struct {
		cand   int
		hedged bool
		buf    []int64
		err    error
	}
	ch := make(chan result, len(cands))
	launched := 0
	launch := func(hedged bool) {
		k := cands[launched]
		launched++
		go func() {
			buf := make([]int64, len(dst))
			err := nd.fetchChunk(ctx, k, n, seed, buf, start)
			ch <- result{cand: k, hedged: hedged, buf: buf, err: err}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if nd.cfg.HedgeAfter > 0 && len(cands) > 1 {
		timer := time.NewTimer(nd.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	pending := 1
	var attempts []error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if launched < len(cands) {
				nd.hedgedReqs.Add(1)
				nd.publishServeEvent(cands[launched], RoundServe, slot, "hedge")
				launch(true)
				pending++
			}
		case res := <-ch:
			pending--
			if res.err == nil {
				copy(dst, res.buf)
				if res.hedged {
					nd.hedgeWins.Add(1)
					nd.publishServeEvent(res.cand, RoundServe, slot, "hedge_win")
				}
				return nil
			}
			attempts = append(attempts, res.err)
			if launched < len(cands) {
				nd.failovers.Add(1)
				nd.publishServeEvent(cands[launched], RoundServe, slot, "failover")
				launch(false)
				pending++
			} else if pending == 0 {
				return fmt.Errorf("cluster: no replica of shard slot %d answered: %w", slot, errors.Join(attempts...))
			}
		}
	}
}

// handleStatus serves a JSON introspection page: the node's place in
// the cluster, its replica duties, the peer list and each peer's
// observed health, resident shards and traffic counters — the
// operator's first stop when two nodes disagree (see OPERATIONS.md).
func (nd *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	type shardInfo struct {
		Slot  int    `json:"slot"`
		N     int64  `json:"n"`
		Seed  uint64 `json:"seed"`
		Start int64  `json:"start"`
		End   int64  `json:"end"`
	}
	var resident []shardInfo
	nd.mu.Lock()
	for el := nd.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*shardEntry)
		if e.built.Load() && e.err == nil {
			resident = append(resident, shardInfo{
				Slot: e.key.slot, N: e.key.n, Seed: e.key.seed, Start: e.sh.Start, End: e.sh.End,
			})
		}
	}
	nd.mu.Unlock()
	counters := make(map[string]int64)
	for _, c := range nd.counters() {
		counters[c.name] = c.v.Load()
	}
	states := nd.health.snapshot()
	peerHealth := make([]string, len(states))
	for k, s := range states {
		if k == nd.cfg.Self {
			peerHealth[k] = "self"
		} else {
			peerHealth[k] = s.String()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"node":            nd.cfg.Self,
		"nodes":           len(nd.cfg.Peers),
		"procs":           nd.cfg.Procs,
		"replicas":        nd.cfg.Replicas,
		"duties":          nd.duties(nd.cfg.Self),
		"peers":           nd.cfg.Peers,
		"peer_health":     peerHealth,
		"geometry_hash":   nd.Geometry().Hash(),
		"max_shards":      nd.cfg.MaxShards,
		"resident_shards": resident,
		"counters":        counters,
	})
}

// counter is one traffic counter with its help text.
type counter struct {
	name, help string
	v          *atomic.Int64
}

// counters lists the node's traffic counters in page order, each under
// its /v1/cluster/status name (permd_cluster_<name>_total on /metrics).
func (nd *Node) counters() []counter {
	return []counter{
		{"exchange_requests", "Round-2 exchange requests served to peers.", &nd.exchangeReqs},
		{"exchange_items", "Values shipped to peers in exchange responses.", &nd.exchangeItems},
		{"chunk_requests", "Shard-local chunk requests served to peers.", &nd.chunkReqs},
		{"chunk_items", "Values served to peers from local shards.", &nd.chunkItems},
		{"proxied_requests", "Chunk requests this node sent to owning peers.", &nd.proxyReqs},
		{"proxied_items", "Values fetched from owning peers.", &nd.proxyItems},
		{"shard_builds", "Shards assembled through the three exchange rounds.", &nd.shardBuilds},
		{"shard_build_ns", "Wall nanoseconds spent assembling shards.", &nd.shardBuildNs},
		{"hedged_requests", "Secondary replica reads fired by the hedge timer.", &nd.hedgedReqs},
		{"hedge_wins", "Hedged replica reads that answered first.", &nd.hedgeWins},
		{"failovers", "Replica requests fired because an earlier replica failed.", &nd.failovers},
		{"join_requests", "Join handshakes served to peers.", &nd.joinReqs},
	}
}

// WriteMetrics appends the node's counters to a Prometheus text page,
// in the permd_cluster_* namespace; the service layer calls it from
// /metrics when cluster mode is on.
func (nd *Node) WriteMetrics(w io.Writer) {
	for _, c := range nd.counters() {
		name := "permd_cluster_" + c.name + "_total"
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, c.help, name, name, c.v.Load())
	}
	fmt.Fprintf(w, "# HELP permd_cluster_peer_health Peer health as observed by this node (0 healthy, 1 suspect, 2 down).\n")
	fmt.Fprintf(w, "# TYPE permd_cluster_peer_health gauge\n")
	for k, s := range nd.health.snapshot() {
		if k == nd.cfg.Self {
			continue
		}
		fmt.Fprintf(w, "permd_cluster_peer_health{peer=\"%d\"} %d\n", k, int(s))
	}
}
