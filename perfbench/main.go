// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time from a single process, checks every output the
// program produces against the library, and prints a report followed by
// one JSON result line:
//
//	perfbench --workload shuffle|pages|lookups|cluster --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics: the median
// set-up time, the operation latency, the throughput and the peak
// resident set. With --trace 1 the workload runs twice, half
// the time untraced and half traced, followed by the per-layer probes,
// and the result holds the per-layer metrics. A run whose outputs fail
// a check exits with status 1. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each --workload name to its runner.
var workloads = map[string]func(*env) (*result, error){
	"shuffle": runShuffle,
	"pages":   runPages,
	"lookups": runLookups,
	"cluster": runCluster,
}

// metric is one entry of the result line's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the result line carries and its unit.
type metricDef struct{ name, unit string }

// put stores v as metric name, with the unit defs declare for it. A
// ratio over an empty sample (possible only when every operation it
// would have timed failed, which already fails the run) is stored as 0,
// which JSON can carry.
func put(m map[string]metric, defs []metricDef, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for _, d := range defs {
		if d.name == name {
			m[name] = metric{v, d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// endToEnd are the metrics of an untraced run, one value per workload
// run, in the order they print. op_ms is the median latency of the
// workload's operation, except on lookups, where it is the 10th
// percentile: on a shared 2-core KVM guest the same 30 us request runs
// at one of two speeds, about 1.6x apart, for seconds at a time, and
// the median lookup moved by 30% between runs as the share of slow time
// changed, while p10 stays in the fast mode and still moves with the
// work each lookup does. The operations of the other workloads last
// milliseconds or longer, long enough to span both speeds, so they
// report the median.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"items_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: shuffle, pages, lookups or cluster")
	seed := fs.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced pass and the per-layer probes")
	out := fs.String("out", ".bench_out", "directory for the result record and spans")
	fault := fs.String("fault", "", "inject one corrupted value: page or cluster (self-test only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWL, ok := workloads[*name]
	faultOK := *fault == "" || (*fault == "page" && *name == "pages") || (*fault == "cluster" && *name == "cluster")
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || !faultOK {
		fmt.Fprintf(stderr, "perfbench: want --workload shuffle|pages|lookups|cluster, --seconds > 0, --trace 0|1, and --fault only as page with pages or cluster with cluster\n")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	rec := record{
		Workload:    *name,
		Seed:        *seed,
		Trace:       *trace,
		Seconds:     *seconds,
		Fingerprint: fingerprint(),
	}

	var res *result
	metrics := map[string]metric{}
	var tr *tracer
	if *trace == 0 {
		var err error
		if res, err = runWL(&env{seed: *seed, dur: dur, fault: *fault}); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		// Peak RSS before calibration, whose buffers are not the workload's.
		rss := peakRSSMB()
		put(metrics, endToEnd, "setup_s", summarize(res.setupS).Median)
		put(metrics, endToEnd, "op_ms", res.opLatency())
		put(metrics, endToEnd, "items_per_s", float64(res.items)/max(res.busy.Seconds(), 1e-9))
		put(metrics, endToEnd, "peak_rss_mb", rss)
	} else {
		half := dur / 2
		plain, err := runWL(&env{seed: *seed, dur: half, fault: *fault})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		tr = newTracer()
		if res, err = runWL(&env{seed: *seed, dur: half, tr: tr, fault: *fault}); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		res.attempted += plain.attempted
		res.failed += plain.failed
		lr, err := probeLayers(*seed, tr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: layer probes: %v\n", err)
			return 1
		}
		res.attempted += lr.attempted
		res.failed += lr.failed
		metrics = lr.metrics
		lr.set("runtime.alloc_bytes_per_item", float64(res.allocBytes)/float64(max(res.itemsAll, 1)))
		lr.set("runtime.gc_cycles", float64(res.gcCycles))
		p0, p1 := plain.opLatency(), res.opLatency()
		lr.set("trace.overhead_frac", (p1-p0)/p0)
		rec.UntracedOpMs, rec.TracedOpMs = p0, p1
	}
	rec.Calibration = calibrate(*seed, tr)
	if tr != nil {
		put(metrics, perLayer, "xrand.fill_ns_per_word", rec.Calibration.FillNsPerWord)
		put(metrics, perLayer, "calib.memmove_ns_per_word", rec.Calibration.MemmoveNsPerWord)
	}
	rec.fill(res)
	rec.Metrics = metrics
	rec.Correct = res.failed == 0 && res.attempted > 0

	rec.print(stdout, tr)
	if err := rec.save(*out, tr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// record is everything one run measured, written as JSON next to the
// spans and printed as the report.
type record struct {
	Workload     string               `json:"workload"`
	Seed         uint64               `json:"seed"`
	Trace        int                  `json:"trace"`
	Seconds      float64              `json:"seconds"`
	Fingerprint  map[string]string    `json:"fingerprint"`
	Calibration  calibration          `json:"calibration"`
	Attempted    int64                `json:"attempted"`
	Failed       int64                `json:"failed"`
	FailedFrac   float64              `json:"failed_frac"`
	Correct      bool                 `json:"correct"`
	Setup        summary              `json:"setup_s"`
	Op           summary              `json:"op_ms"`
	Series       map[string]seriesOut `json:"series"`
	Notes        map[string]float64   `json:"notes,omitempty"`
	Metrics      map[string]metric    `json:"metrics"`
	OpPercentile int                  `json:"op_percentile"`
	UntracedOpMs float64              `json:"untraced_op_ms,omitempty"`
	TracedOpMs   float64              `json:"traced_op_ms,omitempty"`
	seriesOrder  []string
}

type seriesOut struct {
	Unit string `json:"unit"`
	summary
	// Ratio is the median divided by the same run's calibration kernel
	// (ns per word), for every *_ns_per_item series.
	Ratio float64 `json:"ratio_to_calibration,omitempty"`
}

func (rec *record) fill(res *result) {
	rec.Attempted, rec.Failed = res.attempted, res.failed
	if res.attempted > 0 {
		rec.FailedFrac = float64(res.failed) / float64(res.attempted)
	}
	rec.Setup = summarize(res.setupS)
	rec.Op = summarize(res.opMs)
	rec.OpPercentile = res.opPercentile()
	rec.Notes = res.notes
	rec.Series = map[string]seriesOut{}
	for _, s := range res.series {
		so := seriesOut{Unit: s.unit, summary: summarize(s.vals)}
		if strings.HasSuffix(s.name, "_ns_per_item") && rec.Calibration.BaseNsPerWord > 0 {
			so.Ratio = so.Median / rec.Calibration.BaseNsPerWord
		}
		rec.Series[s.name] = so
		rec.seriesOrder = append(rec.seriesOrder, s.name)
	}
}

func fmtSummary(s summary, unit string) string {
	if s.N == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("median %.4g %s  p10 %.4g  q1 %.4g  q3 %.4g  n=%d", s.Median, unit, s.P10, s.Q1, s.Q3, s.N)
	if s.P90 > 0 {
		out += fmt.Sprintf("  p90 %.4g", s.P90)
	}
	if s.TailPct > 0 {
		out += fmt.Sprintf("  p%g %.4g (%d beyond)", s.TailPct, s.Tail, s.TailN)
	}
	return out
}

// print writes the human-readable report.
func (rec *record) print(w io.Writer, tr *tracer) {
	fp := rec.Fingerprint
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "machine: cpu=%q nproc=%s gomaxprocs=%s go=%s %s\n", fp["cpu"], fp["nproc"], fp["gomaxprocs"], fp["go"], fp["platform"])
	c := rec.Calibration
	fmt.Fprintf(w, "calibration: xrand.fill %.4g ns/word + memmove %.4g ns/word = base %.4g ns/word (%d words)\n",
		c.FillNsPerWord, c.MemmoveNsPerWord, c.BaseNsPerWord, c.Words)
	fmt.Fprintf(w, "  %-24s %s\n", "setup_s", fmtSummary(rec.Setup, "s"))
	fmt.Fprintf(w, "  %-24s %s  (op_ms takes p%d)\n", "op_ms", fmtSummary(rec.Op, "ms"), rec.OpPercentile)
	for _, name := range rec.seriesOrder {
		s := rec.Series[name]
		line := fmtSummary(s.summary, s.Unit)
		if s.Ratio > 0 {
			line += fmt.Sprintf("  ratio %.4g", s.Ratio)
		}
		fmt.Fprintf(w, "  %-24s %s\n", name, line)
	}
	for _, k := range sortedKeys(rec.Notes) {
		fmt.Fprintf(w, "  note %-19s %.6g\n", k, rec.Notes[k])
	}
	fmt.Fprintf(w, "outputs: attempted=%d failed=%d failed_frac=%.4g correct=%v\n", rec.Attempted, rec.Failed, rec.FailedFrac, rec.Correct)
	if tr != nil {
		self := selfTimes(tr.spans)
		for _, k := range sortedKeys(self) {
			v := self[k]
			fmt.Fprintf(w, "  self %-44s %10.4g ms total over %d spans\n", k, float64(v[0])/1e6, v[1])
		}
	}
	for _, k := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[k]
		fmt.Fprintf(w, "  metric %-36s %.6g %s\n", k, m.Value, m.Unit)
	}
}

// save writes the record, and the spans when traced, under dir.
func (rec *record) save(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, rec.Trace))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.write(base + ".spans.jsonl")
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fingerprint identifies the machine a result was measured on.
func fingerprint() map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"cpu":        cpu,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"platform":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}
