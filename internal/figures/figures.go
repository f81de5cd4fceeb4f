// Package figures builds the paper's tables and figures from experiment
// results, as renderable report structures. cmd/reproduce and cmd/latbench
// share these builders, so every artifact has exactly one construction
// path.
package figures

import (
	"fmt"
	"strings"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/core"
	"wdmlat/internal/mttf"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/report"
	"wdmlat/internal/rma"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// Table1 builds the latency-tolerance table.
func Table1() *report.Table {
	t := &report.Table{
		Title: "Table 1: Range of Latency Tolerances for Several Multimedia and Signal\n" +
			"Processing Applications, tolerance (n-1)*t ms.",
		Headers: []string{
			"Application", "Buffer size in ms. (t)", "Number of buffers (n)", "Latency Tolerance (n-1)*t",
		},
	}
	for _, row := range mttf.Table1() {
		t.AddRow(
			row.App.Name,
			fmt.Sprintf("%.0f to %.0f", row.App.BufMinMS, row.App.BufMaxMS),
			fmt.Sprintf("%d to %d", row.App.BuffersMin, row.App.BuffersMax),
			fmt.Sprintf("%.0f to %.0f", row.TolLoMS, row.TolHiMS),
		)
	}
	return t
}

// Table2 builds the system-configuration table for one OS.
func Table2(osSel ospersona.OS) *report.Table {
	c := core.SystemConfigFor(osSel)
	t := &report.Table{
		Title:   fmt.Sprintf("Table 2: Test System Configuration — %v", osSel),
		Headers: []string{"Item", "Value"},
	}
	t.AddRow("OS version", c.OSVersion)
	if c.OptionalPack != "" {
		t.AddRow("Optional OS components", c.OptionalPack)
	}
	t.AddRow("Filesystem", c.Filesystem)
	t.AddRow("IDE driver", c.IDEDriver)
	t.AddRow("Processor & speed", c.Processor)
	t.AddRow("Motherboard", c.Motherboard)
	t.AddRow("BIOS ver.", c.BIOS)
	t.AddRow("Memory", c.Memory)
	t.AddRow("Hard drive", c.HardDrive)
	t.AddRow("CD-ROM drive", c.CDROM)
	t.AddRow("AGP graphics", c.Graphics)
	t.AddRow("Resolution", c.Resolution)
	t.AddRow("Audio solution", c.Audio)
	t.AddRow("Network", c.Network)
	t.AddRow("PIT", c.PITFrequency)
	t.AddRow("Legacy ISA devices", c.LegacyISADevices)
	return t
}

// Table3 builds the hourly/daily/weekly worst-case table from per-workload
// results (all on the same OS). Classes absent from results are skipped.
func Table3(results map[workload.Class]*core.Result, title string) *report.Table {
	t := &report.Table{Title: title, Headers: []string{"OS Service"}}
	var present []*core.Result
	for _, wl := range workload.Classes {
		r, ok := results[wl]
		if !ok {
			continue
		}
		present = append(present, r)
		for _, h := range []string{"Hr", "Day", "Wk"} {
			t.Headers = append(t.Headers, fmt.Sprintf("%s %s", ShortName(wl), h))
		}
	}

	addRow := func(label string, pick func(r *core.Result) *stats.Histogram, base func(r *core.Result) *stats.Histogram) {
		row := []string{label}
		for _, r := range present {
			h := pick(r)
			if h == nil {
				row = append(row, "n/a", "n/a", "n/a")
				continue
			}
			wc := r.WorstCaseRow(h)
			if base != nil {
				b := r.WorstCaseRow(base(r))
				for i := range wc {
					d := wc[i] - b[i]
					if d < 0 {
						d = 0
					}
					row = append(row, "+ "+report.Millis(d))
				}
				continue
			}
			for i := range wc {
				row = append(row, report.Millis(wc[i]))
			}
		}
		t.AddRow(row...)
	}

	addRow("H/W Int. to S/W ISR", func(r *core.Result) *stats.Histogram { return r.IntLat }, nil)
	addRow("S/W ISR to DPC", func(r *core.Result) *stats.Histogram {
		if r.IntLat == nil {
			return nil
		}
		return r.DpcInt
	}, func(r *core.Result) *stats.Histogram { return r.IntLat })
	addRow("H/W Interrupt to DPC", func(r *core.Result) *stats.Histogram { return r.DpcInt }, nil)
	addRow("DPC to kernel RT thread (High Priority)",
		func(r *core.Result) *stats.Histogram { return r.Thread[r.HighPriority()] }, nil)
	addRow("H/W Int. to kernel RT thread (High Priority)",
		func(r *core.Result) *stats.Histogram { return r.HwToThread[r.HighPriority()] }, nil)
	addRow("DPC to kernel RT thread (Med. Priority)",
		func(r *core.Result) *stats.Histogram { return r.Thread[r.MediumPriority()] }, nil)
	addRow("H/W Int. to kernel RT thread (Med. Priority)",
		func(r *core.Result) *stats.Histogram { return r.HwToThread[r.MediumPriority()] }, nil)
	return t
}

// ShortName abbreviates a workload class for table headers.
func ShortName(c workload.Class) string {
	switch c {
	case workload.Business:
		return "Office"
	case workload.Workstation:
		return "Wkstn"
	case workload.Games:
		return "Games"
	case workload.Web:
		return "Web"
	default:
		return c.String()
	}
}

// Figure4Panels builds the three Figure 4 panels (DPC-interrupt, RT-28
// thread, RT-24 thread) for one OS, one series per workload class, in the
// paper's axis ranges.
func Figure4Panels(results map[workload.Class]*core.Result) (dpc, t28, t24 []report.Series) {
	for _, wl := range workload.Classes {
		r, ok := results[wl]
		if !ok {
			continue
		}
		label := wl.String()
		dpc = append(dpc, report.NewSeries(label, r.DpcInt, 1, 128))
		t28 = append(t28, report.NewSeries(label, r.Thread[r.HighPriority()], 0.125, 128))
		t24 = append(t24, report.NewSeries(label, r.Thread[r.MediumPriority()], 0.125, 128))
	}
	return dpc, t28, t24
}

// Figure4BandPanels is Figure4Panels with the simultaneous DKW confidence
// band attached to every series, for the band-CSV form of the figure.
func Figure4BandPanels(results map[workload.Class]*core.Result, confidence float64) (dpc, t28, t24 []report.BandSeries) {
	for _, wl := range workload.Classes {
		r, ok := results[wl]
		if !ok {
			continue
		}
		label := wl.String()
		dpc = append(dpc, report.NewBandSeries(label, r.DpcInt, 1, 128, confidence))
		t28 = append(t28, report.NewBandSeries(label, r.Thread[r.HighPriority()], 0.125, 128, confidence))
		t24 = append(t24, report.NewBandSeries(label, r.Thread[r.MediumPriority()], 0.125, 128, confidence))
	}
	return dpc, t28, t24
}

// PrecisionTable summarizes an adaptive campaign's statistical outcome: one
// row per logical cell and watched distribution, with the replica count the
// stopping rule settled on, the convergence verdict, and each policy
// quantile's estimate with its DKW confidence interval in milliseconds.
// prec is normalized internally, so a shorthand policy is fine.
func PrecisionTable(oses []ospersona.OS, classes []workload.Class, variant string,
	results map[ospersona.OS]map[workload.Class]*core.Result,
	ads map[string]campaign.Adaptive, prec stats.Precision, title string) *report.Table {
	p := prec.Normalized()
	t := &report.Table{Title: title, Headers: []string{"Cell", "Distribution", "Replicas", "Converged"}}
	for _, q := range p.Quantiles {
		t.Headers = append(t.Headers, fmt.Sprintf("p%g ms [%.0f%% CI]", q*100, p.Confidence*100))
	}
	for _, o := range oses {
		for _, c := range classes {
			r, ok := results[o][c]
			if !ok {
				continue
			}
			key := campaign.MatrixKey(o, c, variant)
			ad := ads[key]
			dists := []struct {
				name string
				h    *stats.Histogram
			}{
				{"DPC interrupt", r.DpcInt},
				{fmt.Sprintf("RT %d thread", r.HighPriority()), r.Thread[r.HighPriority()]},
				{fmt.Sprintf("RT %d thread", r.MediumPriority()), r.Thread[r.MediumPriority()]},
			}
			for _, d := range dists {
				if d.h == nil {
					continue
				}
				row := []string{key, d.name, fmt.Sprintf("%d", ad.Replicas), fmt.Sprintf("%v", ad.Converged)}
				for _, q := range p.Quantiles {
					lo, est, hi := d.h.QuantileCI(q, p.Confidence)
					row = append(row, report.CIMillis(r.Freq.Millis(est), r.Freq.Millis(lo), r.Freq.Millis(hi)))
				}
				t.AddRow(row...)
			}
		}
	}
	return t
}

// MTTFTable builds a Figure 6/7 table: one column per workload, one row per
// buffering level.
func MTTFTable(curves map[workload.Class][]mttf.Point, title string) *report.Table {
	t := &report.Table{Title: title, Headers: []string{"Buffering (ms)"}}
	var first []mttf.Point
	for _, wl := range workload.Classes {
		if c, ok := curves[wl]; ok {
			t.Headers = append(t.Headers, wl.String()+" MTTF(s)")
			if first == nil {
				first = c
			}
		}
	}
	for i := range first {
		row := []string{fmt.Sprintf("%.0f", first[i].BufferingMS)}
		for _, wl := range workload.Classes {
			c, ok := curves[wl]
			if !ok {
				continue
			}
			cell := fmt.Sprintf("%.0f", c[i].MTTFSeconds)
			if c[i].Censored {
				cell = ">" + cell
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// Figure6 builds the Figure 6 table for one OS: MTTF to underrun of a
// DPC-based softmodem datapump with t = 4 ms cycles and compute 25% of the
// cycle, swept up to 17 buffers, from each class's DPC-interrupt latency.
func Figure6(results map[workload.Class]*core.Result, osName string) *report.Table {
	curves := map[workload.Class][]mttf.Point{}
	for wl, r := range results {
		curves[wl] = mttf.Sweep(r.DpcInt, r.UsageObserved(), 4, 0.25, 17)
	}
	return MTTFTable(curves, fmt.Sprintf("Figure 6: MTTF to underrun, DPC-based datapump, %s (t=4ms)", osName))
}

// Figure7 builds the Figure 7 table for one OS: MTTF to underrun of a
// thread-based datapump with t = 16 ms cycles and compute 25% of the cycle,
// swept up to 7 buffers, from each class's H/W-interrupt-to-high-priority-
// thread latency.
func Figure7(results map[workload.Class]*core.Result, osName string) *report.Table {
	curves := map[workload.Class][]mttf.Point{}
	for wl, r := range results {
		curves[wl] = mttf.Sweep(r.HwToThread[r.HighPriority()], r.UsageObserved(), 16, 0.25, 7)
	}
	return MTTFTable(curves, fmt.Sprintf("Figure 7: MTTF to underrun, thread-based datapump, %s (t=16ms)", osName))
}

// DesignLatency is the §5.2 pseudo worst case of r's H/W-interrupt-to-
// high-priority-thread latency: the level exceeded at most once per period.
func DesignLatency(r *core.Result, period time.Duration) sim.Cycles {
	return rma.PseudoWorstCase(r.HwToThread[r.HighPriority()], r.UsageObserved(), r.Freq.Cycles(period))
}

// Sec52Table builds the §5.2 schedulability table for one OS, one row per
// class in results: the design latency at each rma.ErrorBudgets rate, and
// the rate-monotonic response of rma.DriverTaskSet blocked by the 1
// drop/hour design latency, or "infeasible" when some task cannot meet its
// deadline even alone.
func Sec52Table(results map[workload.Class]*core.Result, osName string) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("§5.2: Pseudo Worst-Case Design Latency (ms) per Error Budget, %s\n"+
			"(RMA: 8 ms softmodem datapump / 16 ms audio mixer / 33 ms video capture, blocked by the 1 drop/hour latency)", osName),
		Headers: []string{"Workload"},
	}
	for _, b := range rma.ErrorBudgets {
		t.Headers = append(t.Headers, b.Name)
	}
	t.Headers = append(t.Headers, "RMA response (ms)")
	for _, wl := range workload.Classes {
		r, ok := results[wl]
		if !ok {
			continue
		}
		row := []string{wl.String()}
		for _, b := range rma.ErrorBudgets {
			row = append(row, fmt.Sprintf("%.2f", r.Freq.Millis(DesignLatency(r, b.Period))))
		}
		res, schedulable, err := rma.Analyze(rma.DriverTaskSet(r.Freq, DesignLatency(r, time.Hour)))
		if err != nil {
			t.AddRow(append(row, "infeasible")...)
			continue
		}
		resp := make([]string, len(res))
		for i, x := range res {
			resp[i] = fmt.Sprintf("%.1f", r.Freq.Millis(x.Response))
		}
		cell := strings.Join(resp, " / ")
		if !schedulable {
			cell += " (misses)"
		}
		t.AddRow(append(row, cell)...)
	}
	return t
}
