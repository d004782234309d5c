package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hetsched/internal/cache
cpu: Imaginary CPU @ 2.00GHz
BenchmarkL1Access/direct-8         	 5000000	       250.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkL1Access/4KB-2way-64B-8   	 3000000	       400 ns/op
BenchmarkThroughput-8              	 1000000	      1000 ns/op	        64.00 MB/s
PASS
ok  	hetsched/internal/cache	3.210s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU != "Imaginary CPU @ 2.00GHz" {
		t.Errorf("context lines misparsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}

	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkL1Access/direct-8" || b.Package != "hetsched/internal/cache" {
		t.Errorf("first benchmark misparsed: %+v", b)
	}
	if b.Iterations != 5000000 || b.NsPerOp != 250.5 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		t.Errorf("first benchmark values: %+v", b)
	}

	// Without -benchmem the memory columns must read as absent, not zero.
	if b := rep.Benchmarks[1]; b.BytesPerOp != -1 || b.AllocsPerOp != -1 {
		t.Errorf("missing -benchmem columns not marked absent: %+v", b)
	}

	// Extra units land in the metrics map.
	if got := rep.Benchmarks[2].Metrics["MB/s"]; got != 64 {
		t.Errorf("MB/s metric = %v, want 64", got)
	}
}

func TestParseRejectsChatter(t *testing.T) {
	chatter := `BenchmarkFoo was mentioned in a log line
Benchmark
BenchmarkBar-8 notanumber 12 ns/op
BenchmarkBaz-8 100 chatter only here
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(chatter)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("chatter parsed as benchmarks: %+v", rep.Benchmarks)
	}
}

// TestParseKeepsMetricsOnMalformedPairs is the regression gate for the
// dropped-metrics bug: one unparsable token (or a dangling odd token) on a
// result line used to throw away the entire line, silently losing custom
// ReportMetric values — most visibly on benchmarks reporting a custom unit
// without the -benchmem allocs columns.
func TestParseKeepsMetricsOnMalformedPairs(t *testing.T) {
	input := `BenchmarkCustom-8 200 1500 ns/op 42.5 events/op
BenchmarkGlued-8 300 2000 ns/op [recovered] 7.25 misses/op
BenchmarkDangling-8 400 3000 ns/op 64.00 MB/s stray
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(input)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	// Custom metric on a no-allocs line survives.
	b := rep.Benchmarks[0]
	if b.NsPerOp != 1500 || b.Metrics["events/op"] != 42.5 {
		t.Errorf("custom metric dropped: %+v", b)
	}
	if b.BytesPerOp != -1 || b.AllocsPerOp != -1 {
		t.Errorf("absent -benchmem columns misread: %+v", b)
	}

	// A non-numeric token glued mid-line loses only itself, not the line.
	b = rep.Benchmarks[1]
	if b.NsPerOp != 2000 || b.Metrics["misses/op"] != 7.25 {
		t.Errorf("metrics after a malformed token dropped: %+v", b)
	}

	// A dangling odd token is ignored; earlier pairs survive.
	b = rep.Benchmarks[2]
	if b.NsPerOp != 3000 || b.Metrics["MB/s"] != 64 {
		t.Errorf("metrics before a dangling token dropped: %+v", b)
	}
}

// writeReport drops a minimal benchjson document for compare-mode tests.
func writeReport(t *testing.T, name string, benches []Benchmark) string {
	t.Helper()
	data, err := json.Marshal(Report{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareMain covers the regression gate: within-tolerance passes,
// beyond-tolerance fails, a vanished baseline benchmark fails, improvements
// and new benchmarks never fail, and usage errors exit 2.
func TestCompareMain(t *testing.T) {
	old := writeReport(t, "old.json", []Benchmark{
		{Name: "BenchmarkA", Package: "p", Iterations: 1, NsPerOp: 1000},
		{Name: "BenchmarkB", Package: "p", Iterations: 1, NsPerOp: 500},
	})
	within := writeReport(t, "within.json", []Benchmark{
		{Name: "BenchmarkA", Package: "p", Iterations: 1, NsPerOp: 1100},
		{Name: "BenchmarkB", Package: "p", Iterations: 1, NsPerOp: 400}, // improvement
		{Name: "BenchmarkNew", Package: "p", Iterations: 1, NsPerOp: 9},
	})
	beyond := writeReport(t, "beyond.json", []Benchmark{
		{Name: "BenchmarkA", Package: "p", Iterations: 1, NsPerOp: 1300},
		{Name: "BenchmarkB", Package: "p", Iterations: 1, NsPerOp: 500},
	})
	missing := writeReport(t, "missing.json", []Benchmark{
		{Name: "BenchmarkA", Package: "p", Iterations: 1, NsPerOp: 1000},
	})
	// The same benchmarks run at GOMAXPROCS=4 carry a -4 suffix.
	procs4 := writeReport(t, "procs4.json", []Benchmark{
		{Name: "BenchmarkA-4", Package: "p", Iterations: 1, NsPerOp: 1050},
		{Name: "BenchmarkB-4", Package: "p", Iterations: 1, NsPerOp: 500},
	})
	procs4Slow := writeReport(t, "procs4slow.json", []Benchmark{
		{Name: "BenchmarkA-4", Package: "p", Iterations: 1, NsPerOp: 1300},
		{Name: "BenchmarkB-4", Package: "p", Iterations: 1, NsPerOp: 500},
	})

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"within tolerance", []string{old, within, "-tolerance", "0.15"}, 0},
		{"regression", []string{old, beyond, "-tolerance", "0.15"}, 1},
		{"regression forgiven by loose tolerance", []string{old, beyond, "-tolerance=0.5"}, 0},
		{"missing benchmark", []string{old, missing}, 1},
		{"identical", []string{old, old}, 0},
		{"-N suffix matches unsuffixed baseline", []string{old, procs4, "-tolerance", "0.15"}, 0},
		{"-N suffix still gates regressions", []string{old, procs4Slow, "-tolerance", "0.15"}, 1},
		{"one file", []string{old}, 2},
		{"bad tolerance", []string{old, within, "-tolerance", "x"}, 2},
		{"unreadable file", []string{old, filepath.Join(t.TempDir(), "nope.json")}, 2},
	}
	for _, c := range cases {
		if got := compareMain(c.args); got != c.want {
			t.Errorf("%s: compareMain(%v) = %d, want %d", c.name, c.args, got, c.want)
		}
	}
}

// TestCompareName pins the GOMAXPROCS suffix normalization: only a purely
// numeric trailing -N is stripped.
func TestCompareName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX":                      "BenchmarkX",
		"BenchmarkX-4":                    "BenchmarkX",
		"BenchmarkX/sub-16":               "BenchmarkX/sub",
		"BenchmarkX/workers=8":            "BenchmarkX/workers=8",
		"BenchmarkX/a-b":                  "BenchmarkX/a-b",
		"BenchmarkX-":                     "BenchmarkX-",
		"BenchmarkRecordTrace/structured": "BenchmarkRecordTrace/structured",
		"BenchmarkKernelExecution-2":      "BenchmarkKernelExecution",
	} {
		if got := compareName(in); got != want {
			t.Errorf("compareName(%q) = %q, want %q", in, got, want)
		}
	}
}
