package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func res(ns float64, allocs float64, hasAlloc bool) benchResult {
	return benchResult{NsPerOp: ns, AllocsOp: allocs, hasNs: true, hasAlloc: hasAlloc}
}

// A 0 ns/op baseline must not produce an Inf/NaN ratio, a garbage speedup
// column, or a spurious time-regression verdict.
func TestCompareRowZeroBaseline(t *testing.T) {
	v := compareRow("BenchmarkX", res(0, 0, false), res(57.3, 0, false), 0.10)
	if v.speedup != "n/a" {
		t.Errorf("speedup = %q, want n/a", v.speedup)
	}
	if len(v.failures) != 0 || v.status != "" {
		t.Errorf("zero baseline flagged a regression: status %q, failures %v",
			v.status, v.failures)
	}
	for _, cell := range []string{v.speedup, v.allocs, v.status} {
		if strings.Contains(cell, "Inf") || strings.Contains(cell, "NaN") {
			t.Errorf("cell %q leaks a degenerate ratio", cell)
		}
	}
}

// Both sides zero: still no verdict, still "n/a".
func TestCompareRowBothZero(t *testing.T) {
	v := compareRow("BenchmarkX", res(0, 0, false), res(0, 0, false), 0.10)
	if v.speedup != "n/a" || len(v.failures) != 0 {
		t.Errorf("both-zero row: speedup %q failures %v", v.speedup, v.failures)
	}
}

// Zero new time with a real baseline: the ratio would be +Inf, so the column
// reads "n/a"; a faster benchmark is never a regression.
func TestCompareRowZeroNew(t *testing.T) {
	v := compareRow("BenchmarkX", res(42, 0, false), res(0, 0, false), 0.10)
	if v.speedup != "n/a" || len(v.failures) != 0 {
		t.Errorf("zero-new row: speedup %q failures %v", v.speedup, v.failures)
	}
}

// The zero-baseline guard must not mask real regressions elsewhere.
func TestCompareRowTimeRegressionStillCaught(t *testing.T) {
	v := compareRow("BenchmarkY", res(100, 2, true), res(150, 2, true), 0.10)
	if !strings.Contains(v.status, "REGRESSION(time)") || len(v.failures) != 1 {
		t.Fatalf("50%% slowdown not flagged: status %q failures %v", v.status, v.failures)
	}
	if !strings.Contains(v.failures[0], "BenchmarkY") {
		t.Errorf("failure line missing benchmark name: %q", v.failures[0])
	}
	if v.speedup != "0.67x" {
		t.Errorf("speedup = %q, want 0.67x", v.speedup)
	}
}

// The allocs gate is ratio-free and applies even when the time baseline is
// zero — alloc growth must still fail the gate.
func TestCompareRowAllocRegressionWithZeroTimeBaseline(t *testing.T) {
	v := compareRow("BenchmarkZ", res(0, 0, true), res(10, 3, true), 0.10)
	if !strings.Contains(v.status, "REGRESSION(allocs)") || len(v.failures) != 1 {
		t.Fatalf("alloc growth not flagged: status %q failures %v", v.status, v.failures)
	}
	if v.speedup != "n/a" {
		t.Errorf("speedup = %q, want n/a", v.speedup)
	}
	if v.allocs != "0 -> 3" {
		t.Errorf("allocs cell = %q, want 0 -> 3", v.allocs)
	}
}

// Within-tolerance slowdown passes.
func TestCompareRowWithinTolerance(t *testing.T) {
	v := compareRow("BenchmarkW", res(100, 1, true), res(105, 1, true), 0.10)
	if len(v.failures) != 0 || v.status != "" {
		t.Errorf("5%% slowdown should pass: status %q failures %v", v.status, v.failures)
	}
	if v.speedup != "0.95x" {
		t.Errorf("speedup = %q, want 0.95x", v.speedup)
	}
}

// writeBenchJSON writes a synthetic `go test -json` bench record, using the
// split name/metrics event shape `make bench` actually produces (benchmark
// name in the Test field, metrics alone in Output).
func writeBenchJSON(t *testing.T, name string, lines ...string) string {
	t.Helper()
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func event(test, output string) string {
	return `{"Action":"output","Test":"` + test + `","Output":"` + output + `"}`
}

// TestWriteComparisonTable drives parse + render end to end over a synthetic
// JSON pair: the table must carry the allocs/op column, per-row speedups,
// and the regression verdicts the exit code is derived from.
func TestWriteComparisonTable(t *testing.T) {
	base := writeBenchJSON(t, "base.json",
		event("BenchmarkFast", "1000 100.0 ns/op 0 B/op 0 allocs/op"),
		event("BenchmarkSlow", "500 200.0 ns/op 16 B/op 2 allocs/op"),
		event("BenchmarkOnlyInBase", "10 5.0 ns/op"),
	)
	newer := writeBenchJSON(t, "new.json",
		event("BenchmarkFast", "2000 50.0 ns/op 0 B/op 0 allocs/op"),
		event("BenchmarkSlow", "400 260.0 ns/op 24 B/op 3 allocs/op"),
		event("BenchmarkOnlyInNew", "10 5.0 ns/op"),
	)
	baseRes, err := parseBenchFile(base)
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := parseBenchFile(newer)
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	failures, err := writeComparison(&out, baseRes, newRes, "base.json", "new.json", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	table := out.String()

	for _, want := range []string{
		"allocs/op",          // header column
		"2.00x",              // BenchmarkFast speedup
		"0 -> 0",             // BenchmarkFast allocs cell
		"0.77x",              // BenchmarkSlow speedup
		"2 -> 3",             // BenchmarkSlow allocs cell
		"REGRESSION(time)",   // 30% > 10% policy
		"REGRESSION(allocs)", // 2 -> 3
		"2 benchmarks compared (base.json -> new.json)",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	for _, reject := range []string{"BenchmarkOnlyInBase", "BenchmarkOnlyInNew", "no regressions"} {
		if strings.Contains(table, reject) {
			t.Errorf("table wrongly contains %q:\n%s", reject, table)
		}
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want exactly a time and an allocs regression", failures)
	}
}

// A clean pair renders the pass line and no failures.
func TestWriteComparisonClean(t *testing.T) {
	base := writeBenchJSON(t, "base.json",
		event("BenchmarkFast", "1000 100.0 ns/op 0 B/op 0 allocs/op"))
	newer := writeBenchJSON(t, "new.json",
		event("BenchmarkFast", "1000 101.0 ns/op 0 B/op 0 allocs/op"))
	baseRes, _ := parseBenchFile(base)
	newRes, _ := parseBenchFile(newer)
	var out strings.Builder
	failures, err := writeComparison(&out, baseRes, newRes, "b", "n", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("clean pair produced failures: %v", failures)
	}
	if !strings.Contains(out.String(), "no regressions beyond policy") {
		t.Errorf("pass line missing:\n%s", out.String())
	}
}

// Disjoint records are a tooling mistake, not a pass.
func TestWriteComparisonNoCommon(t *testing.T) {
	var out strings.Builder
	_, err := writeComparison(&out,
		benchRecord{results: map[string]benchResult{"BenchmarkA": res(1, 0, false)}},
		benchRecord{results: map[string]benchResult{"BenchmarkB": res(1, 0, false)}},
		"b", "n", 0.10)
	if err == nil || !strings.Contains(err.Error(), "no common benchmarks") {
		t.Fatalf("err = %v, want no-common-benchmarks error", err)
	}
}

// hostHeader returns the host lines `go test -json -bench` emits ahead of a
// package's results.
func hostHeader(cpu string) []string {
	return []string{
		event("", "goos: linux\\n"),
		event("", "goarch: amd64\\n"),
		event("", "pkg: wdmlat\\n"),
		event("", "cpu: "+cpu+"\\n"),
	}
}

// Records that differ only in the cpu line (as BENCH_2.json and
// BENCH_3.json do) get a warning naming both hosts at the head of the
// table; the gates and their verdicts are unchanged.
func TestWriteComparisonWarnsOnHostMismatch(t *testing.T) {
	base := writeBenchJSON(t, "base.json", append(hostHeader("Intel(R) Xeon(R) Processor @ 2.10GHz"),
		event("BenchmarkFast", "1000 100.0 ns/op 0 B/op 0 allocs/op"),
		event("BenchmarkSlow", "500 200.0 ns/op 16 B/op 2 allocs/op"))...)
	newer := writeBenchJSON(t, "new.json", append(hostHeader("Intel(R) Xeon(R) Processor"),
		event("BenchmarkFast", "1000 101.0 ns/op 0 B/op 0 allocs/op"),
		event("BenchmarkSlow", "500 300.0 ns/op 16 B/op 2 allocs/op"))...)
	baseRec, err := parseBenchFile(base)
	if err != nil {
		t.Fatal(err)
	}
	newRec, err := parseBenchFile(newer)
	if err != nil {
		t.Fatal(err)
	}
	want := hostInfo{goos: "linux", goarch: "amd64", cpu: "Intel(R) Xeon(R) Processor @ 2.10GHz"}
	if baseRec.host != want {
		t.Fatalf("base host = %+v, want %+v", baseRec.host, want)
	}

	var out strings.Builder
	failures, err := writeComparison(&out, baseRec, newRec, "base.json", "new.json", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	table := out.String()
	if !strings.HasPrefix(table, "WARNING: records come from different hosts") {
		t.Errorf("table does not open with the host warning:\n%s", table)
	}
	for _, want := range []string{
		`base "Intel(R) Xeon(R) Processor @ 2.10GHz" linux/amd64`,
		`new "Intel(R) Xeon(R) Processor" linux/amd64`,
		"REGRESSION(time)",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkSlow") {
		t.Errorf("failures = %v, want only the BenchmarkSlow time regression", failures)
	}

	// The same host on both sides: no warning.
	var same strings.Builder
	if _, err := writeComparison(&same, baseRec, baseRec, "b", "b", 0.10); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(same.String(), "WARNING") {
		t.Errorf("same-host pair warned:\n%s", same.String())
	}
}
