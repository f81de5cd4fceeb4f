// Command benchdiff compares two benchmark records produced by
// `go test -json -bench` (the `make bench` output) and enforces the repo's
// perf-regression policy: a benchmark may not get more than -max-regress
// slower in ns/op, and may not allocate more per op, than the baseline.
//
// Usage:
//
//	benchdiff -base BENCH_0.json -new BENCH_1.json
//
// The tool prints a comparison table for every benchmark present in both
// files and exits non-zero if any regression exceeds the policy, so it can
// gate CI via `make bench-compare`. When the records' goos/goarch/cpu lines
// differ, it warns on stderr and in the table header that the ns/op column
// compares two hosts; the gates themselves are unchanged.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"wdmlat/internal/cli"
)

// testEvent is the subset of the `go test -json` event stream benchdiff
// needs: benchmark result lines arrive as Output events, with the
// benchmark's name in the Test field (the Output itself holds only the
// iteration count and metrics).
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// benchResult is one parsed benchmark result line.
type benchResult struct {
	Name     string
	NsPerOp  float64
	BPerOp   float64
	AllocsOp float64
	hasNs    bool
	hasAlloc bool
}

// hostInfo is the host a record was taken on, from the goos:, goarch: and
// cpu: header lines `go test -bench` prints before each package's results.
type hostInfo struct {
	goos, goarch, cpu string
}

func (h hostInfo) String() string {
	return fmt.Sprintf("%q %s/%s", h.cpu, h.goos, h.goarch)
}

// benchRecord is one parsed bench record.
type benchRecord struct {
	host    hostInfo
	results map[string]benchResult // keyed by benchmark name
}

// hostMismatch returns a warning naming both hosts when the records were
// taken on different ones, and "" when their host lines agree.
func hostMismatch(base, newer hostInfo) string {
	if base == newer {
		return ""
	}
	return fmt.Sprintf("WARNING: records come from different hosts: base %s, new %s; "+
		"ns/op differences include the host difference", base, newer)
}

// parseHostLine records a goos:/goarch:/cpu: header line into h.
func parseHostLine(h *hostInfo, line string) {
	key, val, _ := strings.Cut(line, ":")
	val = strings.TrimSpace(val)
	switch key {
	case "goos":
		h.goos = val
	case "goarch":
		h.goarch = val
	case "cpu":
		h.cpu = val
	}
}

// parseBenchFile reads a `go test -json` stream and returns its results
// keyed by benchmark name (GOMAXPROCS suffix stripped) and its host lines.
// Plain-text benchmark output (without -json) is accepted too: lines
// starting with "Benchmark" parse the same way.
func parseBenchFile(path string) (benchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchRecord{}, err
	}
	defer f.Close()

	var host hostInfo
	out := make(map[string]benchResult)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				continue // tolerate interleaved non-JSON noise
			}
			if ev.Action != "output" {
				continue
			}
			text := strings.TrimSpace(ev.Output)
			if strings.HasPrefix(ev.Test, "Benchmark") && !strings.HasPrefix(text, "Benchmark") {
				// Metrics-only Output ("12  56.7 ns/op ...") for the
				// benchmark named in Test: the result line was split
				// across events at the name/metrics boundary.
				if r, ok := parseMetrics(strings.Fields(text)); ok {
					r.Name = ev.Test
					out[r.Name] = r
				}
				continue
			}
			// Otherwise the Output may itself be a full result line
			// ("BenchmarkName-8  12  56.7 ns/op ...") or a host line:
			// fall through.
			line = text
		}
		line = strings.TrimSpace(line)
		parseHostLine(&host, line)
		r, ok := parseBenchLine(line)
		if ok {
			out[r.Name] = r
		}
	}
	if err := sc.Err(); err != nil {
		return benchRecord{}, err
	}
	if len(out) == 0 {
		return benchRecord{}, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return benchRecord{host: host, results: out}, nil
}

// parseBenchLine parses one testing.B result line:
//
//	BenchmarkName-8   1234   56.7 ns/op   8 B/op   1 allocs/op   0.5 extra-metric
func parseBenchLine(line string) (benchResult, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchResult{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r, ok := parseMetrics(fields[1:])
	if !ok {
		return benchResult{}, false
	}
	r.Name = name
	return r, true
}

// parseMetrics parses the tail of a benchmark result line: an iteration
// count followed by "value unit" pairs.
func parseMetrics(fields []string) (benchResult, bool) {
	if len(fields) < 3 {
		return benchResult{}, false
	}
	if _, err := strconv.ParseInt(fields[0], 10, 64); err != nil {
		return benchResult{}, false // not an iteration count: a status line
	}
	var r benchResult
	for i := 1; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, r.hasNs = v, true
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.AllocsOp, r.hasAlloc = v, true
		}
	}
	return r, r.hasNs
}

// rowVerdict is the policy outcome for one benchmark: the formatted table
// cells plus any failure lines the row contributes to the gate.
type rowVerdict struct {
	speedup  string
	allocs   string
	status   string
	failures []string
}

// compareRow applies the regression policy to one benchmark pair. A zero
// ns/op baseline carries no information (a sub-resolution or degenerate
// record), so the speedup column reads "n/a" and the time gate is skipped
// for that row rather than producing an Inf/NaN ratio and a spurious
// verdict. The allocs gate is ratio-free and always applies.
func compareRow(name string, b, n benchResult, maxRegress float64) rowVerdict {
	var v rowVerdict
	v.speedup = "n/a"
	if b.NsPerOp > 0 {
		if n.NsPerOp > 0 {
			v.speedup = fmt.Sprintf("%.2fx", b.NsPerOp/n.NsPerOp)
		}
		if n.NsPerOp > b.NsPerOp*(1+maxRegress) {
			v.status = "  REGRESSION(time)"
			v.failures = append(v.failures, fmt.Sprintf(
				"%s: %.4g -> %.4g ns/op (%.1f%% slower, limit %.0f%%)",
				name, b.NsPerOp, n.NsPerOp,
				(n.NsPerOp/b.NsPerOp-1)*100, maxRegress*100))
		}
	}
	if b.hasAlloc || n.hasAlloc {
		v.allocs = fmt.Sprintf("%.0f -> %.0f", b.AllocsOp, n.AllocsOp)
		if n.AllocsOp > b.AllocsOp {
			v.status += "  REGRESSION(allocs)"
			v.failures = append(v.failures, fmt.Sprintf(
				"%s: allocs/op grew %.0f -> %.0f", name, b.AllocsOp, n.AllocsOp))
		}
	}
	return v
}

// writeComparison renders the comparison table for every benchmark present
// in both records (sorted by name), headed by the host-mismatch warning when
// there is one, and returns the accumulated policy failures. It errors when
// the two records share no benchmark: that is a tooling mistake (wrong
// file, renamed suite), not a clean pass. basePath and newPath only label
// the summary line.
func writeComparison(w io.Writer, base, newer benchRecord,
	basePath, newPath string, maxRegress float64) ([]string, error) {
	baseRes, newRes := base.results, newer.results
	names := make([]string, 0, len(baseRes))
	for name := range baseRes {
		if _, ok := newRes[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no common benchmarks between %s and %s", basePath, newPath)
	}

	if warn := hostMismatch(base.host, newer.host); warn != "" {
		fmt.Fprintf(w, "%s\n\n", warn)
	}
	fmt.Fprintf(w, "%-52s %14s %14s %8s %16s\n",
		"benchmark", "base ns/op", "new ns/op", "speedup", "allocs/op")
	var failures []string
	for _, name := range names {
		v := compareRow(name, baseRes[name], newRes[name], maxRegress)
		failures = append(failures, v.failures...)
		fmt.Fprintf(w, "%-52s %14.4g %14.4g %8s %16s%s\n",
			name, baseRes[name].NsPerOp, newRes[name].NsPerOp,
			v.speedup, v.allocs, v.status)
	}

	fmt.Fprintf(w, "\n%d benchmarks compared (%s -> %s)\n", len(names), basePath, newPath)
	if len(failures) == 0 {
		fmt.Fprintln(w, "no regressions beyond policy")
	}
	return failures, nil
}

func main() {
	base := flag.String("base", "BENCH_0.json", "baseline bench record")
	newer := flag.String("new", "BENCH_1.json", "candidate bench record")
	maxRegress := flag.Float64("max-regress", 0.10,
		"maximum tolerated ns/op regression as a fraction (0.10 = 10%)")
	cli.AddVersionFlag("benchdiff", flag.CommandLine)
	flag.Parse()

	baseRec, err := parseBenchFile(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRec, err := parseBenchFile(*newer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if warn := hostMismatch(baseRec.host, newRec.host); warn != "" {
		fmt.Fprintln(os.Stderr, "benchdiff:", warn)
	}

	failures, err := writeComparison(os.Stdout, baseRec, newRec, *base, *newer, *maxRegress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
}
