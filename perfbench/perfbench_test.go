package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCommand runs the command in process and parses its last line.
func runCommand(t *testing.T, args ...string) (int, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result (%v)\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res
}

// A single flipped value in a served page, and one flipped bit on the
// cluster's peer wire, must each fail the command: the checks count the
// corrupted operation and the exit status is non-zero.
func TestCorruptedOutputFailsTheCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pages and cluster workloads")
	}
	for _, c := range []struct{ workload, fault string }{{"pages", "page"}, {"cluster", "cluster"}} {
		t.Run(c.workload, func(t *testing.T) {
			code, res := runCommand(t, "--workload", c.workload, "--seed", "7", "--seconds", "0.5", "--fault", c.fault)
			if code == 0 || res.Correct || res.Failed < 1 {
				t.Fatalf("with one corrupted value: exit %d, correct %v, failed %d of %d; want a failing command",
					code, res.Correct, res.Failed, res.Attempted)
			}
			code, res = runCommand(t, "--workload", c.workload, "--seed", "7", "--seconds", "0.5")
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("untouched: exit %d, correct %v, failed %d of %d", code, res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}

// An untraced run prints exactly the end-to-end metrics, a traced run
// exactly the per-layer ones, with the units BENCHMARK.json declares.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)

	if testing.Short() {
		t.Skip("runs the lookups workload")
	}
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		code, res := runCommand(t, "--workload", "lookups", "--seed", "3", "--seconds", "0.5", "--trace", trace)
		if code != 0 || !res.Correct {
			t.Fatalf("trace %s: exit %d, correct %v", trace, code, res.Correct)
		}
		if got, want := strings.Join(metricNames(res.Metrics), " "), strings.Join(defNames(defs), " "); got != want {
			t.Errorf("trace %s metrics:\n got %s\nwant %s", trace, got, want)
		}
		for _, d := range defs {
			if u := res.Metrics[d.name].Unit; u != d.unit {
				t.Errorf("trace %s: %s has unit %q, want %q", trace, d.name, u, d.unit)
			}
		}
	}
}

func TestBadFlagsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pages", "--trace", "2"},
		{"--workload", "pages", "--seconds", "0"},
		{"--workload", "shuffle", "--fault", "page"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}
