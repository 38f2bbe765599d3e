// Package conformance is the permd wire contract, written down as a
// table of golden request/response fixtures and executed against any
// way of reaching a server: the in-process router, a loopback TCP
// daemon, and the permclient SDK all run the same table (see
// conformance_test.go), so "the handler", "the deployed daemon" and
// "what the SDK sees" can never drift apart silently.
//
// The golden bodies come from two sources. Error paths are literal
// strings — the exact status and bytes a misuse answers with are part
// of the API, and a reworded message is a breaking change this suite
// makes visible. Data-bearing 200s are computed from the randperm
// library at fixture-build time under the same pinned options the
// server uses: the HTTP determinism contract says the wire bytes ARE
// the library bytes, so the library is the one legitimate oracle.
package conformance

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"randperm"
	"randperm/internal/service"
	"randperm/internal/workload"
)

// Fixed parameters every conformance server is built with. The values
// are deliberately small: MaxChunk 16 forces multi-page streaming on
// modest ranges, MaxBody 256 makes the oversized-POST refusal cheap to
// trigger, MaxN 4096 puts the materialization gate in easy reach.
const (
	Procs    = 2
	MaxN     = 4096
	MaxChunk = 16
	MaxBody  = 256
	// MaxEpoch is deliberately tiny so the epoch-bound refusal is a
	// cheap fixture.
	MaxEpoch = 8
	// MeteredClient is the X-Permd-Client identity the quota fixtures
	// exhaust: a fixed (rate-0) budget of MeteredBudget items.
	MeteredClient = "metered"
	MeteredBudget = 8
	// MeteredWLClient is a second metered identity for the workload
	// quota fixtures, so they cannot disturb the exactly-drained budget
	// of MeteredClient: assign debits 1 item, a 3-value epoch chunk
	// debits 3, and the bucket of MeteredWLBudget = 4 is empty.
	MeteredWLClient = "metered-wl"
	MeteredWLBudget = 4
)

// ServerConfig is the canonical configuration under test. Every mode
// must build its server from exactly this config or the golden bodies
// (which encode MaxN, MaxBody and the quota budget) will not match.
func ServerConfig() service.Config {
	return service.Config{
		Procs:    Procs,
		MaxN:     MaxN,
		MaxChunk: MaxChunk,
		MaxBody:  MaxBody,
		MaxEpoch: MaxEpoch,
		Quota: service.QuotaConfig{
			// Default unlimited: only the metered identities are budgeted,
			// so fixtures that are not about quotas never touch a bucket.
			Overrides: map[string]service.QuotaSpec{
				MeteredClient:   {Rate: 0, Burst: MeteredBudget},
				MeteredWLClient: {Rate: 0, Burst: MeteredWLBudget},
			},
		},
	}
}

// Fixture is one golden request/response pair. Fixtures run in table
// order against one shared server per mode: order matters only within
// the quota section, which drains the metered client's fixed budget
// step by step.
type Fixture struct {
	Name   string
	Method string
	Path   string // including query
	Header map[string]string
	Body   string // request body ("" for GET)

	WantStatus int
	WantBody   string // exact bytes when Exact, else prefix
	Exact      bool
	WantHeader map[string]string // subset match
}

// Fixtures builds the golden table. t is only used to fail fast if the
// library oracle itself errors.
func Fixtures(t testing.TB) []Fixture {
	t.Helper()
	bij := func(seed uint64, n, start, length int64) string {
		return chunkOracle(t, seed, n, start, length, randperm.BackendBijective)
	}
	fixtures := []Fixture{
		// --- data-bearing 200s: wire bytes == library bytes ---
		{
			Name: "chunk bijective", Method: "GET",
			Path:       "/v1/perm/42/chunk?n=100&start=0&len=5",
			WantStatus: 200, WantBody: bij(42, 100, 0, 5), Exact: true,
			WantHeader: map[string]string{"Permd-Backend": "bijective"},
		},
		{
			Name: "chunk paged past MaxChunk", Method: "GET",
			Path:       "/v1/perm/42/chunk?n=1000&start=0&len=100",
			WantStatus: 200, WantBody: bij(42, 1000, 0, 100), Exact: true,
		},
		{
			Name: "chunk shmem materializes", Method: "GET",
			Path:       "/v1/perm/7/chunk?n=64&start=0&len=64&backend=shmem",
			WantStatus: 200,
			WantBody:   chunkOracle(t, 7, 64, 0, 64, randperm.BackendSharedMem),
			Exact:      true,
			WantHeader: map[string]string{"Permd-Backend": "shmem"},
		},
		{
			Name: "at", Method: "GET",
			Path:       "/v1/perm/42/at?n=100&i=7",
			WantStatus: 200, WantBody: bij(42, 100, 7, 1), Exact: true,
		},
		{
			Name: "shuffle text", Method: "POST",
			Path:       "/v1/shuffle?seed=11",
			Body:       "alpha\nbravo\ncharlie\ndelta\n",
			WantStatus: 200,
			WantBody:   shuffleOracle(t, 11, []string{"alpha", "bravo", "charlie", "delta"}),
			Exact:      true,
		},
		{
			Name: "sample", Method: "GET",
			Path:       "/v1/sample?n=50&k=5&seed=9",
			WantStatus: 200, WantBody: sampleOracle(t, 50, 5, 9), Exact: true,
		},

		// --- error paths: status AND body are the contract ---
		{
			Name: "malformed seed", Method: "GET",
			Path:       "/v1/perm/abc/chunk?n=10",
			WantStatus: 400,
			WantBody:   "permd: bad seed \"abc\": want a decimal uint64\n", Exact: true,
		},
		{
			Name: "negative n", Method: "GET",
			Path:       "/v1/perm/1/chunk?n=-5",
			WantStatus: 400,
			WantBody:   "permd: missing or negative n: the domain size n is required\n", Exact: true,
		},
		{
			Name: "overflow n", Method: "GET",
			Path:       "/v1/perm/1/chunk?n=99999999999999999999",
			WantStatus: 400,
			WantBody:   "permd: bad n=\"99999999999999999999\": want a decimal integer\n", Exact: true,
		},
		{
			Name: "chunk start past end", Method: "GET",
			Path:       "/v1/perm/1/chunk?n=100&start=200",
			WantStatus: 400,
			WantBody:   "permd: start=200 outside [0, 100]\n", Exact: true,
		},
		{
			Name: "negative len", Method: "GET",
			Path:       "/v1/perm/1/chunk?n=100&len=-3",
			WantStatus: 400,
			WantBody:   "permd: bad len=\"-3\": want a non-negative decimal integer\n", Exact: true,
		},
		{
			Name: "unknown backend", Method: "GET",
			Path:       "/v1/perm/1/chunk?n=100&backend=quantum",
			WantStatus: 400,
			WantBody:   "permd: randperm: unknown backend \"quantum\" (want sim, shmem, inplace, bijective or cluster)\n", Exact: true,
		},
		{
			Name: "materialization bound", Method: "GET",
			Path:       fmt.Sprintf("/v1/perm/1/chunk?n=%d&backend=shmem", MaxN*2),
			WantStatus: 400,
			WantBody: fmt.Sprintf(
				"permd: n=%d exceeds this server's materialization bound %d for backend shmem; use backend=bijective for larger domains\n",
				MaxN*2, MaxN),
			Exact: true,
		},
		{
			Name: "at out of range", Method: "GET",
			Path:       "/v1/perm/1/at?n=100&i=100",
			WantStatus: 400,
			WantBody:   "permd: i=100 outside [0, 100)\n", Exact: true,
		},
		{
			Name: "shuffle refuses non-exact backend", Method: "POST",
			Path:       "/v1/shuffle?backend=bijective",
			Body:       "a\nb\n",
			WantStatus: 400,
			WantBody:   "permd: backend bijective is not exactly uniform over S_n and is refused on /v1/shuffle; use sim, shmem or inplace (or stream the keyed family from /v1/perm)\n",
			Exact:      true,
		},
		{
			Name: "oversized shuffle body", Method: "POST",
			Path:       "/v1/shuffle?seed=1",
			Body:       strings.Repeat("x\n", MaxBody),
			WantStatus: 413,
			WantBody:   fmt.Sprintf("permd: request body exceeds this server's bound %d bytes\n", MaxBody),
			Exact:      true,
		},
		{
			Name: "sample k past n", Method: "GET",
			Path:       "/v1/sample?n=5&k=10",
			WantStatus: 400,
			WantBody:   "permd: k=10 outside [0, n=5]\n", Exact: true,
		},
		{
			Name: "sample bound", Method: "GET",
			Path:       fmt.Sprintf("/v1/sample?n=%d&k=1", MaxN*2),
			WantStatus: 400,
			WantBody:   fmt.Sprintf("permd: n=%d exceeds this server's bound %d\n", MaxN*2, MaxN),
			Exact:      true,
		},
		{
			Name: "unknown path", Method: "GET",
			Path:       "/v1/nope",
			WantStatus: 404,
		},
		{
			Name: "method not allowed", Method: "POST",
			Path:       "/v1/sample?n=10&k=1",
			WantStatus: 405,
		},

		// --- quota exhaustion: drains the metered identity's fixed
		// budget of MeteredBudget items in a pinned order ---
		{
			Name: "quota: 5-item chunk admitted", Method: "GET",
			Path:       "/v1/perm/42/chunk?n=100&start=0&len=5",
			Header:     map[string]string{"X-Permd-Client": MeteredClient},
			WantStatus: 200, WantBody: bij(42, 100, 0, 5), Exact: true,
		},
		{
			Name: "quota: point read admitted (2 left)", Method: "GET",
			Path:       "/v1/perm/42/at?n=100&i=7",
			Header:     map[string]string{"X-Permd-Client": MeteredClient},
			WantStatus: 200, WantBody: bij(42, 100, 7, 1), Exact: true,
		},
		{
			Name: "quota: 5-item chunk over budget", Method: "GET",
			Path:       "/v1/perm/42/chunk?n=100&start=0&len=5",
			Header:     map[string]string{"X-Permd-Client": MeteredClient},
			WantStatus: 429,
			WantBody:   "permd: quota exhausted for client \"metered\": retry after 3600s\n",
			Exact:      true,
			WantHeader: map[string]string{"Retry-After": "3600"},
		},
		{
			Name: "quota: refusal debits nothing", Method: "GET",
			Path:       "/v1/perm/42/at?n=100&i=8",
			Header:     map[string]string{"X-Permd-Client": MeteredClient},
			WantStatus: 200, WantBody: bij(42, 100, 8, 1), Exact: true,
		},
		{
			Name: "quota: last item", Method: "GET",
			Path:       "/v1/perm/42/at?n=100&i=9",
			Header:     map[string]string{"X-Permd-Client": MeteredClient},
			WantStatus: 200, WantBody: bij(42, 100, 9, 1), Exact: true,
		},
		{
			Name: "quota: empty bucket refuses a point read", Method: "GET",
			Path:       "/v1/perm/42/at?n=100&i=10",
			Header:     map[string]string{"X-Permd-Client": MeteredClient},
			WantStatus: 429,
			WantBody:   "permd: quota exhausted for client \"metered\": retry after 3600s\n",
			Exact:      true,
			WantHeader: map[string]string{"Retry-After": "3600"},
		},
		{
			Name: "quota: 400 outranks 429", Method: "GET",
			Path:       "/v1/perm/42/at?n=100&i=-1",
			Header:     map[string]string{"X-Permd-Client": MeteredClient},
			WantStatus: 400,
			WantBody:   "permd: i=-1 outside [0, 100)\n", Exact: true,
		},
		{
			Name: "quota: other clients unaffected", Method: "GET",
			Path:       "/v1/perm/42/at?n=100&i=10",
			WantStatus: 200, WantBody: bij(42, 100, 10, 1), Exact: true,
		},

		// --- workload endpoints: assignment and epoch bytes come from
		// the internal/workload oracle, errors are pinned strings ---
		{
			Name: "assign", Method: "GET",
			Path:       "/v1/assign?seed=42&n=1000&id=123&spec=control:9,treat:1",
			WantStatus: 200,
			WantBody:   assignOracle(t, 42, 1000, 123, "control:9,treat:1"),
			Exact:      true,
			WantHeader: map[string]string{
				"Permd-Backend": "bijective",
				"Permd-Bucket":  assignIndexOracle(t, 42, 1000, 123, "control:9,treat:1"),
			},
		},
		{
			Name: "assign explicit bijective backend", Method: "GET",
			Path:       "/v1/assign?seed=42&n=1000&id=123&spec=control:9,treat:1&backend=bijective",
			WantStatus: 200,
			WantBody:   assignOracle(t, 42, 1000, 123, "control:9,treat:1"),
			Exact:      true,
		},
		{
			Name: "epochs fresh", Method: "GET",
			Path:       "/v1/epochs?seed=7&n=40&epoch=3&len=40",
			WantStatus: 200,
			WantBody:   epochOracle(t, 7, 40, 3, workload.EpochFresh, 0, 40),
			Exact:      true,
			WantHeader: map[string]string{
				"Permd-Backend":    "bijective",
				"Permd-Epoch-Mode": "fresh",
				"Permd-Epoch-Key":  epochKeyOracle(7, 3, workload.EpochFresh),
			},
		},
		{
			Name: "epochs recycled", Method: "GET",
			Path:       "/v1/epochs?seed=7&n=40&epoch=3&mode=recycled&len=40",
			WantStatus: 200,
			WantBody:   epochOracle(t, 7, 40, 3, workload.EpochRecycled, 0, 40),
			Exact:      true,
			WantHeader: map[string]string{
				"Permd-Epoch-Mode": "recycled",
				"Permd-Epoch-Key":  epochKeyOracle(7, 3, workload.EpochRecycled),
			},
		},
		{
			Name: "epochs paged past MaxChunk", Method: "GET",
			Path:       "/v1/epochs?seed=7&n=100&epoch=1&len=100",
			WantStatus: 200,
			WantBody:   epochOracle(t, 7, 100, 1, workload.EpochFresh, 0, 100),
			Exact:      true,
		},
		{
			Name: "epochs windowed", Method: "GET",
			Path:       "/v1/epochs?seed=7&n=40&epoch=3&start=10&len=5",
			WantStatus: 200,
			WantBody:   epochOracle(t, 7, 40, 3, workload.EpochFresh, 10, 5),
			Exact:      true,
		},
		{
			Name: "assign bad weight spec", Method: "GET",
			Path:       "/v1/assign?seed=1&n=100&id=0&spec=a:0",
			WantStatus: 400,
			WantBody:   "permd: bad spec: workload: bucket \"a\": weight \"0\": want a positive decimal integer\n",
			Exact:      true,
		},
		{
			Name: "assign empty spec", Method: "GET",
			Path:       "/v1/assign?seed=1&n=100&id=0",
			WantStatus: 400,
			WantBody:   "permd: bad spec: workload: empty assignment spec: want name:weight,...\n",
			Exact:      true,
		},
		{
			Name: "assign refuses non-bijective backend", Method: "GET",
			Path:       "/v1/assign?seed=1&n=100&id=0&spec=a:1&backend=shmem",
			WantStatus: 400,
			WantBody:   "permd: /v1/assign requires the bijective backend (got shmem): it is defined on the keyed bijection's O(1) Index\n",
			Exact:      true,
		},
		{
			Name: "assign id out of range", Method: "GET",
			Path:       "/v1/assign?seed=1&n=100&id=100&spec=a:1",
			WantStatus: 400,
			WantBody:   "permd: id=100 outside [0, 100)\n", Exact: true,
		},
		{
			Name: "assign missing n", Method: "GET",
			Path:       "/v1/assign?seed=1&id=0&spec=a:1",
			WantStatus: 400,
			WantBody:   "permd: missing or non-positive n: the id-domain size n is required\n",
			Exact:      true,
		},
		{
			Name: "epochs refuses non-bijective backend", Method: "GET",
			Path:       "/v1/epochs?seed=1&n=100&backend=sim",
			WantStatus: 400,
			WantBody:   "permd: /v1/epochs requires the bijective backend (got sim): it is defined on the keyed bijection's O(1) Index\n",
			Exact:      true,
		},
		{
			Name: "epochs unknown mode", Method: "GET",
			Path:       "/v1/epochs?seed=1&n=100&mode=stale",
			WantStatus: 400,
			WantBody:   "permd: workload: unknown epoch mode \"stale\" (want fresh or recycled)\n",
			Exact:      true,
		},
		{
			Name: "epochs past bound", Method: "GET",
			Path:       fmt.Sprintf("/v1/epochs?seed=1&n=100&epoch=%d", MaxEpoch+1),
			WantStatus: 400,
			WantBody:   fmt.Sprintf("permd: epoch=%d outside [0, %d]\n", MaxEpoch+1, MaxEpoch),
			Exact:      true,
		},
		{
			Name: "epochs missing n", Method: "GET",
			Path:       "/v1/epochs?seed=1",
			WantStatus: 400,
			WantBody:   "permd: missing or negative n: the dataset size n is required\n",
			Exact:      true,
		},
		{
			Name: "epochs start past end", Method: "GET",
			Path:       "/v1/epochs?seed=1&n=100&start=200",
			WantStatus: 400,
			WantBody:   "permd: start=200 outside [0, 100]\n", Exact: true,
		},
		{
			Name: "epochs negative len", Method: "GET",
			Path:       "/v1/epochs?seed=1&n=100&len=-3",
			WantStatus: 400,
			WantBody:   "permd: bad len=\"-3\": want a non-negative decimal integer\n", Exact: true,
		},
		{
			Name: "sample malformed seed", Method: "GET",
			Path:       "/v1/sample?n=10&k=1&seed=abc",
			WantStatus: 400,
			WantBody:   "permd: bad seed \"abc\": want a decimal uint64\n", Exact: true,
		},
		{
			Name: "shuffle malformed seed", Method: "POST",
			Path:       "/v1/shuffle?seed=abc",
			Body:       "a\nb\n",
			WantStatus: 400,
			WantBody:   "permd: bad seed \"abc\": want a decimal uint64\n", Exact: true,
		},
		{
			Name: "assign malformed seed", Method: "GET",
			Path:       "/v1/assign?seed=abc&n=100&id=0&spec=a:1",
			WantStatus: 400,
			WantBody:   "permd: bad seed \"abc\": want a decimal uint64\n", Exact: true,
		},
		{
			Name: "epochs malformed seed", Method: "GET",
			Path:       "/v1/epochs?seed=abc&n=100",
			WantStatus: 400,
			WantBody:   "permd: bad seed \"abc\": want a decimal uint64\n", Exact: true,
		},

		// --- workload quota: the second metered identity's budget of
		// MeteredWLBudget = 4 items, debited exactly as served ---
		{
			Name: "quota: assign debits one item", Method: "GET",
			Path:       "/v1/assign?seed=42&n=1000&id=123&spec=control:9,treat:1",
			Header:     map[string]string{"X-Permd-Client": MeteredWLClient},
			WantStatus: 200,
			WantBody:   assignOracle(t, 42, 1000, 123, "control:9,treat:1"),
			Exact:      true,
		},
		{
			Name: "quota: epoch chunk debits its length (3)", Method: "GET",
			Path:       "/v1/epochs?seed=7&n=40&epoch=3&len=3",
			Header:     map[string]string{"X-Permd-Client": MeteredWLClient},
			WantStatus: 200,
			WantBody:   epochOracle(t, 7, 40, 3, workload.EpochFresh, 0, 3),
			Exact:      true,
		},
		{
			Name: "quota: workload budget exhausted", Method: "GET",
			Path:       "/v1/assign?seed=42&n=1000&id=124&spec=control:9,treat:1",
			Header:     map[string]string{"X-Permd-Client": MeteredWLClient},
			WantStatus: 429,
			WantBody:   "permd: quota exhausted for client \"metered-wl\": retry after 3600s\n",
			Exact:      true,
			WantHeader: map[string]string{"Retry-After": "3600"},
		},
		{
			Name: "quota: workload 400 outranks 429", Method: "GET",
			Path:       "/v1/assign?seed=42&n=1000&id=124&spec=nope",
			Header:     map[string]string{"X-Permd-Client": MeteredWLClient},
			WantStatus: 400,
			WantBody:   "permd: bad spec: workload: bucket \"nope\": want name:weight\n",
			Exact:      true,
		},
	}
	return fixtures
}

// assignOracle renders the /v1/assign golden body — the bucket name
// the workload library assigns, newline-terminated.
func assignOracle(t testing.TB, seed uint64, n, id int64, spec string) string {
	t.Helper()
	sp, err := workload.ParseAssignSpec(spec)
	if err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	_, name := workload.Assign(sp, seed, n, id)
	return name + "\n"
}

// assignIndexOracle renders the Permd-Bucket header value.
func assignIndexOracle(t testing.TB, seed uint64, n, id int64, spec string) string {
	t.Helper()
	sp, err := workload.ParseAssignSpec(spec)
	if err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	idx, _ := workload.Assign(sp, seed, n, id)
	return strconv.Itoa(idx)
}

// epochKeyOracle derives the epoch's bijection key the way the server
// does — the Permd-Epoch-Key header value.
func epochKeyOracle(seed uint64, epoch int64, mode workload.EpochMode) string {
	return strconv.FormatUint(workload.NewEpocher(seed, mode).Key(epoch), 10)
}

// epochOracle renders the /v1/epochs golden body: the epoch key's
// bijective permutation under the pinned server options.
func epochOracle(t testing.TB, seed uint64, n, epoch int64, mode workload.EpochMode, start, length int64) string {
	t.Helper()
	key := workload.NewEpocher(seed, mode).Key(epoch)
	return chunkOracle(t, key, n, start, length, randperm.BackendBijective)
}

// chunkOracle renders the library's own chunk bytes under the pinned
// server options — the golden body for a /v1/perm chunk or at request.
func chunkOracle(t testing.TB, seed uint64, n, start, length int64, backend randperm.Backend) string {
	t.Helper()
	pm, err := randperm.NewPermuter(n, randperm.Options{Procs: Procs, Seed: seed, Backend: backend})
	if err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	vals := make([]int64, length)
	m, err := pm.Chunk(vals, start)
	if err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	var b strings.Builder
	for _, v := range vals[:m] {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return b.String()
}

// shuffleOracle renders the text-mode shuffle golden body: the server
// runs ParallelShuffle with Procs = min(server procs, count) on the
// shmem backend.
func shuffleOracle(t testing.TB, seed uint64, lines []string) string {
	t.Helper()
	out, _, err := randperm.ParallelShuffle(lines, randperm.Options{
		Procs: min(Procs, len(lines)), Seed: seed, Backend: randperm.BackendSharedMem,
	})
	if err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	return strings.Join(out, "\n") + "\n"
}

// ShuffleExpect is shuffleOracle for SDK-level asserts (JSON mode
// shuffles the same element order as text mode — the permutation is a
// function of (seed, backend, procs, count) only).
func ShuffleExpect(t testing.TB, seed uint64, lines []string) []string {
	t.Helper()
	out, _, err := randperm.ParallelShuffle(lines, randperm.Options{
		Procs: min(Procs, len(lines)), Seed: seed, Backend: randperm.BackendSharedMem,
	})
	if err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	return out
}

// sampleOracle renders the sample endpoint's golden body.
func sampleOracle(t testing.TB, n, k int64, seed uint64) string {
	t.Helper()
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	sample, _, err := randperm.ParallelSample(data, k, randperm.Options{Procs: Procs, Seed: seed})
	if err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	var b strings.Builder
	for _, v := range sample {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return b.String()
}

// ChunkExpect exposes the chunk oracle to SDK-level asserts as parsed
// values rather than wire bytes.
func ChunkExpect(t testing.TB, seed uint64, n, start, length int64) []int64 {
	t.Helper()
	pm, err := randperm.NewPermuter(n, randperm.Options{Procs: Procs, Seed: seed, Backend: randperm.BackendBijective})
	if err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	vals := make([]int64, length)
	if _, err := pm.Chunk(vals, start); err != nil {
		t.Fatalf("conformance oracle: %v", err)
	}
	return vals
}

// Response is what a transport hands back to the fixture checker.
type Response struct {
	Status int
	Body   string
	Header map[string]string // only the keys the fixture asks about
}

// Transport executes one fixture request against the server under
// test. Implementations: httptest recorder, real TCP client.
type Transport func(t *testing.T, f Fixture) Response

// Run drives the whole fixture table through one transport against one
// fresh server. Each fixture is a subtest; the quota section relies on
// table order, which subtests preserve (they run sequentially).
func Run(t *testing.T, via Transport) {
	t.Helper()
	for _, f := range Fixtures(t) {
		t.Run(f.Name, func(t *testing.T) {
			got := via(t, f)
			if got.Status != f.WantStatus {
				t.Fatalf("status = %d, want %d (body %q)", got.Status, f.WantStatus, got.Body)
			}
			if f.Exact {
				if got.Body != f.WantBody {
					t.Errorf("body = %q, want %q", got.Body, f.WantBody)
				}
			} else if f.WantBody != "" && !strings.HasPrefix(got.Body, f.WantBody) {
				t.Errorf("body = %q, want prefix %q", got.Body, f.WantBody)
			}
			for k, want := range f.WantHeader {
				if got.Header[k] != want {
					t.Errorf("header %s = %q, want %q", k, got.Header[k], want)
				}
			}
		})
	}
}
