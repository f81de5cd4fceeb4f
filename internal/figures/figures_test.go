package figures

import (
	"io"
	"strings"
	"testing"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/mttf"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

func render(t *testing.T, write func(w io.Writer) error) string {
	t.Helper()
	var b strings.Builder
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTable1(t *testing.T) {
	out := render(t, Table1().Write)
	for _, want := range []string{"ADSL", "Modem", "RT audio", "RT video", "12 to 20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestTable2BothSystems(t *testing.T) {
	nt := render(t, Table2(ospersona.NT4).Write)
	w98 := render(t, Table2(ospersona.Win98).Write)
	if !strings.Contains(nt, "NTFS") || !strings.Contains(w98, "FAT32") {
		t.Fatal("filesystem rows wrong")
	}
	if !strings.Contains(w98, "Plus! 98") {
		t.Fatal("Plus! pack row missing from Win98 config")
	}
}

func campaignResults(t *testing.T) map[workload.Class]*core.Result {
	t.Helper()
	out := map[workload.Class]*core.Result{}
	for _, wl := range []workload.Class{workload.Business, workload.Games} {
		out[wl] = core.Run(core.RunConfig{
			OS: ospersona.Win98, Workload: wl,
			Duration: 10 * time.Second, Seed: 9,
		})
	}
	return out
}

func TestTable3RendersAllRows(t *testing.T) {
	// Full four-class map (reuse the two-run results for the others; the
	// builder only requires presence).
	results := campaignResults(t)
	results[workload.Workstation] = results[workload.Business]
	results[workload.Web] = results[workload.Games]
	out := render(t, Table3(results, "Table 3 test").Write)
	for _, want := range []string{
		"H/W Int. to S/W ISR",
		"S/W ISR to DPC",
		"H/W Interrupt to DPC",
		"DPC to kernel RT thread (High Priority)",
		"H/W Int. to kernel RT thread (Med. Priority)",
		"Office Hr", "Web Wk",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Win98 results carry the legacy split: no n/a cells.
	if strings.Contains(out, "n/a") {
		t.Fatalf("unexpected n/a for Win98 results:\n%s", out)
	}
}

func TestTable3NTSideMarksLegacyRowsNA(t *testing.T) {
	results := map[workload.Class]*core.Result{}
	for _, wl := range workload.Classes {
		results[wl] = core.Run(core.RunConfig{
			OS: ospersona.NT4, Workload: wl,
			Duration: 5 * time.Second, Seed: 9,
		})
	}
	out := render(t, Table3(results, "NT").Write)
	if !strings.Contains(out, "n/a") {
		t.Fatal("NT table should mark the legacy-hook rows n/a")
	}
}

func TestFigure4Panels(t *testing.T) {
	results := campaignResults(t)
	dpc, t28, t24 := Figure4Panels(results)
	if len(dpc) != 2 || len(t28) != 2 || len(t24) != 2 {
		t.Fatalf("panel sizes: %d %d %d", len(dpc), len(t28), len(t24))
	}
	if dpc[0].Label != "Business Apps" {
		t.Fatalf("series order/label: %q", dpc[0].Label)
	}
	if len(t28[0].Points) == 0 {
		t.Fatal("empty series")
	}
}

func TestMTTFTable(t *testing.T) {
	results := campaignResults(t)
	curves := map[workload.Class][]mttf.Point{}
	for wl, r := range results {
		curves[wl] = mttf.Sweep(r.DpcInt, r.UsageObserved(), 4, 0.25, 5)
	}
	out := render(t, MTTFTable(curves, "Figure 6 test").Write)
	if !strings.Contains(out, "Buffering (ms)") || !strings.Contains(out, "3D Games MTTF(s)") {
		t.Fatalf("table malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+4 { // title, header, separator + 4 buffer levels
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestShortNames(t *testing.T) {
	want := map[workload.Class]string{
		workload.Business:    "Office",
		workload.Workstation: "Wkstn",
		workload.Games:       "Games",
		workload.Web:         "Web",
	}
	for c, s := range want {
		if ShortName(c) != s {
			t.Errorf("ShortName(%v) = %q", c, ShortName(c))
		}
	}
}

func TestFigure4BandPanels(t *testing.T) {
	results := campaignResults(t)
	dpc, t28, t24 := Figure4BandPanels(results, 0.95)
	if len(dpc) != 2 || len(t28) != 2 || len(t24) != 2 {
		t.Fatalf("panel sizes: %d %d %d", len(dpc), len(t28), len(t24))
	}
	for _, p := range dpc[0].Points {
		if p.CCDFLoPercent > p.CCDFHiPercent {
			t.Fatalf("inverted band [%g, %g] at %g ms", p.CCDFLoPercent, p.CCDFHiPercent, p.LoMs)
		}
	}
}

func TestPrecisionTable(t *testing.T) {
	results := campaignResults(t)
	results[workload.Workstation] = results[workload.Business]
	results[workload.Web] = results[workload.Games]
	byOS := map[ospersona.OS]map[workload.Class]*core.Result{ospersona.Win98: results}
	ads := map[string]campaign.Adaptive{}
	for _, wl := range workload.Classes {
		ads[campaign.MatrixKey(ospersona.Win98, wl, "default")] = campaign.Adaptive{Replicas: 3, Converged: true}
	}
	prec := stats.Precision{RelWidth: 0.1}
	out := render(t, PrecisionTable([]ospersona.OS{ospersona.Win98}, workload.Classes, "default",
		byOS, ads, prec, "Precision test").Write)
	for _, want := range []string{
		"Precision test",
		"p99 ms [95% CI]", "p99.9 ms [95% CI]",
		"win98/business/default", "DPC interrupt", "RT 28 thread", "RT 24 thread",
		"true",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// 4 cells x 3 distributions, plus title/header/separator.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+4*3 {
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestTable3SkipsAbsentClasses(t *testing.T) {
	r := core.Run(core.RunConfig{
		OS: ospersona.Win98, Workload: workload.Games,
		Duration: 5 * time.Second, Seed: 9,
	})
	out := render(t, Table3(map[workload.Class]*core.Result{workload.Games: r}, "Games only").Write)
	if !strings.Contains(out, "Games Wk") || strings.Contains(out, "Office") || strings.Contains(out, "Web") {
		t.Fatalf("header should name only the Games class:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+7 { // title, header, separator + 7 service rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	if got := len(strings.Fields(lines[1])); got != 2+3*2 { // "OS Service" + 3 x "Games <h>"
		t.Fatalf("header has %d fields, want one class:\n%s", got, out)
	}
}

func TestFigure6And7Sweeps(t *testing.T) {
	results := campaignResults(t)
	for _, c := range []struct {
		out   string
		title string
		rows  int
	}{
		{render(t, Figure6(results, "Windows 98").Write), "Figure 6: MTTF to underrun, DPC-based datapump, Windows 98 (t=4ms)", 16},
		{render(t, Figure7(results, "Windows 98").Write), "Figure 7: MTTF to underrun, thread-based datapump, Windows 98 (t=16ms)", 6},
	} {
		lines := strings.Split(strings.TrimSpace(c.out), "\n")
		if lines[0] != c.title || len(lines) != 3+c.rows {
			t.Fatalf("want %q with %d buffer levels:\n%s", c.title, c.rows, c.out)
		}
	}
}

func TestSec52Table(t *testing.T) {
	results := campaignResults(t)
	out := render(t, Sec52Table(results, "Windows 98").Write)
	for _, want := range []string{"§5.2", "Windows 98", "1 drop/5 min", "1 drop/day", "RMA response (ms)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4+2 { // two title lines, header, separator + one row per class
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	for i, wl := range []workload.Class{workload.Business, workload.Games} {
		row := lines[4+i]
		if !strings.HasPrefix(row, wl.String()) {
			t.Fatalf("row %d is not %v: %q", i, wl, row)
		}
		if !strings.Contains(row, "infeasible") && strings.Count(row, " / ") != 2 {
			t.Fatalf("row %q has neither three RMA responses nor infeasible", row)
		}
	}
}
