package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/engine"
)

// TestWireGolden pins the bytes the peer endpoints put on the wire: the
// status, length and SHA-256 of /v1/cluster/exchange and
// /v1/cluster/chunk responses across replication, a width the cluster
// size does not divide, a domain smaller than the width, and the
// refusals. Any change to the RPX2 framing or the chunk encoding shows
// up here, so the codec can be rewritten against a fixed target.
func TestWireGolden(t *testing.T) {
	for _, c := range []struct {
		name                   string
		nodes, procs, replicas int
		self                   int
		url                    string
		status, length         int
		sha                    string
	}{
		{"exchange R=2", 3, 6, 2, 0, "/v1/cluster/exchange?n=300&seed=5&p=6&nodes=3&from=2&to=1",
			200, 372, "eef8ffa5c79af2dae33e0b713d18345ff025259aaf86098f10150ab731d9e71a"},
		{"exchange own slot", 3, 6, 2, 0, "/v1/cluster/exchange?n=300&seed=5&p=6&nodes=3&from=0&to=0",
			200, 268, "4ed91f8ff2fe8be9e46ae74ed5c39b0b6f5136e29e80b2af32225164e16d620d"},
		{"exchange p%N!=0", 3, 8, 1, 1, "/v1/cluster/exchange?n=1001&seed=7&p=8&nodes=3&from=1&to=0",
			200, 1280, "ef63445b050aa331da2bf94bcd951a0573150af83e7c450feecd69783204ee29"},
		{"exchange n<p", 4, 8, 1, 2, "/v1/cluster/exchange?n=5&seed=3&p=8&nodes=4&from=2&to=3",
			200, 76, "c760476cceaf8266043a055ed6a6a4875e885433288238ed5f21cc07516a1bd2"},
		{"exchange n=0", 2, 4, 1, 1, "/v1/cluster/exchange?n=0&seed=3&p=4&nodes=2&from=1&to=0",
			200, 76, "e8d10e01596dbc772994bbb5f58b9e861211306d487266da88b546d7ca2d4cae"},
		{"exchange not replicated", 3, 6, 1, 0, "/v1/cluster/exchange?n=300&seed=5&p=6&nodes=3&from=1&to=0",
			403, 65, "28fdbc49efa948e0dee8d8a6678d5df67e74a2e2822e38809e341d023be05a45"},
		{"exchange width mismatch", 3, 6, 1, 0, "/v1/cluster/exchange?n=300&seed=5&p=7&nodes=3&from=0&to=1",
			409, 63, "74ce79ef3e06ccec19a0e1480770ff41147d1d69107962f1b830c5dcc6b96c67"},
		{"chunk one node", 1, 4, 1, 0, "/v1/cluster/chunk?n=1000&seed=7&start=3&len=10",
			200, 80, "cdcc887a37a2152ed2a81690d124fea4e27fd2352933bb2fccac83899a33c812"},
		{"chunk 2 nodes", 2, 8, 1, 1, "/v1/cluster/chunk?n=1000&seed=7&start=500&len=500",
			200, 4000, "87ff6eb4a9429efa3ea9ec1df0915693797c3c22777b13b88f25f770a692bd89"},
		{"chunk replica slot", 3, 6, 2, 0, "/v1/cluster/chunk?n=301&seed=5&start=201&len=100",
			200, 800, "fb9ace5ed12411ff26efb1962a79b4bb6df78cc4f149d73f4b3e3343b172cfd9"},
		{"chunk empty", 2, 8, 1, 0, "/v1/cluster/chunk?n=1000&seed=7&start=10&len=0",
			200, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		t.Run(c.name, func(t *testing.T) {
			nds, _ := bootChaosCluster(t, c.nodes, c.procs, c.replicas, nil)
			w := httptest.NewRecorder()
			nds[c.self].Handler().ServeHTTP(w, httptest.NewRequest("GET", c.url, nil))
			sum := sha256.Sum256(w.Body.Bytes())
			got := hex.EncodeToString(sum[:])
			if w.Code != c.status || w.Body.Len() != c.length || got != c.sha {
				t.Errorf("%s: %d, %d bytes, sha256 %s; want %d, %d bytes, sha256 %s",
					c.url, w.Code, w.Body.Len(), got, c.status, c.length, c.sha)
			}
		})
	}
}

// TestWireDecodeFailures points a requester at a peer serving mutated
// exchange bodies and pins each refusal: the *PeerError names the
// peer, round 2 and the exchange, and carries the decoder's exact
// message. Nothing from a refused body may reach a built shard.
func TestWireDecodeFailures(t *testing.T) {
	const n, procs, seed = 40, 4, 2
	const url = "/v1/cluster/exchange?n=40&seed=2&p=4&nodes=2&from=1&to=0"
	// The honest body, from a real node 1 of the same geometry.
	honest, err := New(Config{Self: 1, Peers: []string{"http://node0", "http://node1"}, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	honest.Handler().ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("honest exchange: %d %s", w.Code, w.Body)
	}
	body := w.Body.Bytes()

	with := func(off int, b byte) []byte {
		m := append([]byte(nil), body...)
		m[off] = b
		return m
	}
	// Byte layout: 36-byte header; source index 2 at 36; the count
	// a[2][0] at 40; its payload from 48.
	for _, c := range []struct {
		name   string
		status int
		body   []byte
		want   string
	}{
		{"non-200", http.StatusInternalServerError, []byte("boom\n"), "500 Internal Server Error: boom\n"},
		{"empty body", 200, nil, "reading header: EOF"},
		{"header cut inside magic", 200, body[:2], "reading header: unexpected EOF"},
		{"header cut after magic", 200, body[:4], "reading header: EOF"},
		{"header cut inside seed", 200, body[:10], "reading header: unexpected EOF"},
		{"header cut between fields", 200, body[:20], "reading header: EOF"},
		{"header cut inside slots", 200, body[:34], "reading header: unexpected EOF"},
		{"bad magic", 200, with(3, '1'), `bad magic "RPX1"`},
		{"short bad magic", 200, []byte("RPX9"), `bad magic "RPX9"`},
		{"config echo", 200, with(4, body[4]^1), "config echo mismatch: got (seed=3 n=40 p=4 nodes=2 from=1 to=0), want (2 40 4 2 1 0)"},
		{"source cut", 200, body[:36], "reading source header: EOF"},
		{"source sequence", 200, with(36, 3), "source block sequence broken: got 3, want 2"},
		{"count cut", 200, body[:42], "reading segment count: unexpected EOF"},
		{"count", 200, with(40, body[40]+1), "matrix disagreement at a[2][0]: peer shipped 3 values, local matrix says 2 — the nodes are not running the same (seed, n, p, nodes)"},
		{"payload cut before first value", 200, body[:48], "reading segment payload: EOF"},
		{"payload cut after one value", 200, body[:56], "reading segment payload: EOF"},
		{"payload cut inside a value", 200, body[:61], "reading segment payload: unexpected EOF"},
		{"payload cut at the end", 200, body[:len(body)-1], "reading segment payload: unexpected EOF"},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.RequestURI() != url {
					t.Errorf("requester asked for %s, want %s", r.URL.RequestURI(), url)
				}
				w.WriteHeader(c.status)
				w.Write(c.body)
			}))
			defer peer.Close()
			nd, err := New(Config{Self: 0, Peers: []string{"http://unused", peer.URL}, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			_, err = nd.shard(0, n, seed)
			var pe *PeerError
			if !errors.As(err, &pe) {
				t.Fatalf("no *PeerError in %v", err)
			}
			if pe.Node != 1 || pe.Addr != peer.URL || pe.Round != RoundExchange || pe.Op != "exchange" {
				t.Errorf("PeerError names node %d (%s) round %d op %q, want node 1 (%s) round %d op exchange",
					pe.Node, pe.Addr, pe.Round, pe.Op, peer.URL, RoundExchange)
			}
			if got := pe.Err.Error(); got != c.want {
				t.Errorf("message %q, want %q", got, c.want)
			}
			if nd.shardResident(0, n, seed) {
				t.Error("a refused exchange left a resident shard")
			}
		})
	}
}

// TestWireChunkFailures does the same for the chunk leg of a routed
// read: a requester whose span lives on a peer serving a failed or
// short body gets a *PeerError naming the peer and the chunk call,
// with the decoder's exact message.
func TestWireChunkFailures(t *testing.T) {
	const n, procs, seed = 40, 4, 2
	const url = "/v1/cluster/chunk?n=40&seed=2&start=20&len=5"
	body := make([]byte, 40)
	for _, c := range []struct {
		name   string
		status int
		body   []byte
		want   string
	}{
		{"non-200", http.StatusRequestedRangeNotSatisfiable, []byte("no\n"), "416 Requested Range Not Satisfiable: no\n"},
		{"empty body", 200, nil, "short read: EOF"},
		{"cut inside a value", 200, body[:13], "short read: unexpected EOF"},
		{"cut between values", 200, body[:16], "short read: unexpected EOF"},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.RequestURI() != url {
					t.Errorf("requester asked for %s, want %s", r.URL.RequestURI(), url)
				}
				w.WriteHeader(c.status)
				w.Write(c.body)
			}))
			defer peer.Close()
			nd, err := New(Config{Self: 0, Peers: []string{"http://unused", peer.URL}, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			_, err = nd.Permuter(n, seed).Chunk(make([]int64, 5), 20)
			var pe *PeerError
			if !errors.As(err, &pe) {
				t.Fatalf("no *PeerError in %v", err)
			}
			if pe.Node != 1 || pe.Round != RoundServe || pe.Op != "chunk" {
				t.Errorf("PeerError names node %d round %d op %q, want node 1 round %d op chunk",
					pe.Node, pe.Round, pe.Op, RoundServe)
			}
			if got := pe.Err.Error(); got != c.want {
				t.Errorf("message %q, want %q", got, c.want)
			}
		})
	}
}

// goneWriter is a ResponseWriter whose requester has gone away: every
// body write fails.
type goneWriter struct{ h http.Header }

func (g *goneWriter) Header() http.Header       { return g.h }
func (g *goneWriter) WriteHeader(int)           {}
func (g *goneWriter) Write([]byte) (int, error) { return 0, errors.New("requester gone") }

// TestWireUnsentItemsNotCounted: the peer endpoints count the items of
// a response only once it is flushed, so a write that fails adds
// nothing to exchange_items or chunk_items — the requests themselves
// are still counted.
func TestWireUnsentItemsNotCounted(t *testing.T) {
	for _, c := range []struct {
		name, url   string
		peers       []string
		reqs, items func(*Node) int64
	}{
		{"exchange", "/v1/cluster/exchange?n=40&seed=2&p=4&nodes=2&from=1&to=0", []string{"http://node0", "http://node1"},
			func(nd *Node) int64 { return nd.exchangeReqs.Load() }, func(nd *Node) int64 { return nd.exchangeItems.Load() }},
		{"chunk", "/v1/cluster/chunk?n=1000&seed=7&start=3&len=10", []string{"http://node1"},
			func(nd *Node) int64 { return nd.chunkReqs.Load() }, func(nd *Node) int64 { return nd.chunkItems.Load() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			nd, err := New(Config{Self: len(c.peers) - 1, Peers: c.peers, Procs: 4})
			if err != nil {
				t.Fatal(err)
			}
			nd.Handler().ServeHTTP(&goneWriter{h: http.Header{}}, httptest.NewRequest("GET", c.url, nil))
			if got := c.reqs(nd); got != 1 {
				t.Errorf("%s requests = %d, want 1", c.name, got)
			}
			if got := c.items(nd); got != 0 {
				t.Errorf("%s items = %d after a failed write, want 0", c.name, got)
			}
		})
	}
}

// FuzzExchangeDecode feeds arbitrary peer bytes to the exchange decoder
// of a 2-node, p=4 requester building slot 0 from slot 1. Peer bytes
// are outside input: the decoder must never panic, must never write
// outside the windows of the source blocks it fetches (the rest of the
// shard belongs to the local half), and may return nil only for a body
// whose header and every count match — in which case the windows hold
// exactly the body's payloads.
func FuzzExchangeDecode(f *testing.F) {
	const n, p, seed = 40, 4, 2
	peer, err := New(Config{Self: 1, Peers: []string{"http://node0", "http://node1"}, Procs: p})
	if err != nil {
		f.Fatal(err)
	}
	w := httptest.NewRecorder()
	peer.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/cluster/exchange?n=40&seed=2&p=4&nodes=2&from=1&to=0", nil))
	honest := w.Body.Bytes()
	for _, b := range [][]byte{honest, honest[:36], honest[:52], nil, []byte("RPX2")} {
		f.Add(b)
	}

	want := peer.exchangeHeader(n, seed, 1, 0)
	sizes := core.EvenBlocks(n, p)
	a := commat.SampleSeq(engine.CGMStreams(seed, p)[0], sizes, sizes)
	off := blockOffsets(n, p)
	starts := engine.ScatterStarts(a, off[:p])
	sLo, sHi := blockSpan(p, 2, 1)
	tLo, tHi := blockSpan(p, 2, 0)
	shardLen := off[tHi] - off[tLo]
	owned := make([]bool, shardLen)
	for i := sLo; i < sHi; i++ {
		for j := tLo; j < tHi; j++ {
			for k := starts[i][j]; k < starts[i][j]+a.At(i, j); k++ {
				owned[k-off[tLo]] = true
			}
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		const untouched = -7
		vals := make([]int64, shardLen)
		for k := range vals {
			vals[k] = untouched
		}
		segs := func(i int) [][]int64 {
			if i < sLo || i >= sHi {
				t.Fatalf("decoder asked for the windows of source %d outside [%d, %d)", i, sLo, sHi)
			}
			ws := make([][]int64, tHi-tLo)
			for j := tLo; j < tHi; j++ {
				lo, hi := starts[i][j]-off[tLo], starts[i][j]-off[tLo]+a.At(i, j)
				ws[j-tLo] = vals[lo:hi:hi]
			}
			return ws
		}
		err := decodeExchange(bytes.NewReader(body), want, segs)
		for k, v := range vals {
			if !owned[k] && v != untouched {
				t.Fatalf("decoder wrote %d at shard offset %d, outside every fetched window", v, k)
			}
		}
		if err != nil {
			return
		}
		// Accepted: the body must frame exactly the expected header,
		// sources and counts, and the windows must hold its payloads.
		var hdr bytes.Buffer
		binary.Write(&hdr, binary.LittleEndian, want)
		if !bytes.HasPrefix(body, hdr.Bytes()) {
			t.Fatalf("accepted a body whose header is not the expected one: % x", body[:min(len(body), 36)])
		}
		pos := hdr.Len()
		word := func(size int) int64 {
			if pos+size > len(body) {
				t.Fatalf("accepted a body cut at %d", len(body))
			}
			var v int64
			if size == 4 {
				v = int64(int32(binary.LittleEndian.Uint32(body[pos:])))
			} else {
				v = int64(binary.LittleEndian.Uint64(body[pos:]))
			}
			pos += size
			return v
		}
		for i := sLo; i < sHi; i++ {
			if got := word(4); got != int64(i) {
				t.Fatalf("accepted source %d where %d was due", got, i)
			}
			for j, seg := range segs(i) {
				if got := word(8); got != a.At(i, tLo+j) {
					t.Fatalf("accepted count %d for a[%d][%d] = %d", got, i, tLo+j, a.At(i, tLo+j))
				}
				for _, v := range seg {
					if got := word(8); got != v {
						t.Fatalf("window holds %d where the body sent %d", v, got)
					}
				}
			}
		}
	})
}
