// prioritysweep measures thread latency as a function of the measurement
// thread's real-time priority, on both operating systems. It extends the
// paper's two-point comparison (priorities 24 and 28, §4.1) to the whole
// real-time band and makes the §4.2 mechanism visible as a cliff: on NT,
// priorities at or below the work-item worker's (default 24) absorb
// work-item bursts, priorities above it are clean; on Windows 98 the
// scheduler-locked windows dominate every priority equally.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"wdmlat/internal/campaign"
	"wdmlat/internal/cli"
	"wdmlat/internal/core"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/report"
)

func main() {
	wlFlag := flag.String("workload", "business", "stress class")
	duration := flag.Duration("duration", 3*time.Minute, "virtual collection per priority")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	checkpoint := flag.String("checkpoint", "", "checkpoint directory: persist finished cells and skip them on re-run")
	obs := cli.NewObs("prioritysweep", flag.CommandLine)
	cli.AddVersionFlag("prioritysweep", flag.CommandLine)
	flag.Parse()

	wl, err := cli.ParseWorkload(*wlFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prioritysweep:", err)
		os.Exit(1)
	}

	prios := []int{17, 19, 21, 23, 24, 25, 27, 29, 31}
	oses := []ospersona.OS{ospersona.NT4, ospersona.Win98}

	// Every (priority, OS) point is an independent cell: submit the whole
	// sweep up front and collect in print order.
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := obs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "prioritysweep:", err)
		os.Exit(1)
	}
	st, err := cli.OpenStore(*checkpoint, obs.Registry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prioritysweep:", err)
		os.Exit(1)
	}
	run := campaign.New(campaign.Options{BaseSeed: *seed, Jobs: *jobs, Context: ctx, Store: st, Metrics: obs.Registry})
	obs.StartProgress(run)
	key := func(osSel ospersona.OS, p int) string {
		return campaign.MatrixKey(osSel, wl, fmt.Sprintf("prio-%d", p))
	}
	for _, p := range prios {
		for _, osSel := range oses {
			run.Submit(campaign.Cell{Key: campaign.ReplicaKey(key(osSel, p), 0), Config: core.RunConfig{
				OS:             osSel,
				Workload:       wl,
				Duration:       *duration,
				HighPriority:   p,
				MediumPriority: p - 1,
			}})
		}
	}

	t := &report.Table{
		Title: fmt.Sprintf("Thread latency vs real-time priority under %v (worst case, ms)\n"+
			"(the WDM work-item worker runs at priority 24 — §4.2)", wl),
		Headers: []string{"Priority", "NT 4.0 worst", "NT 4.0 p99.9", "Win98 worst", "Win98 p99.9"},
	}
	for _, p := range prios {
		row := []string{fmt.Sprintf("%d", p)}
		for _, osSel := range oses {
			r, err := run.Merged(key(osSel, p), 1)
			if err != nil {
				cli.FailCampaign("prioritysweep", run, obs, err)
			}
			h := r.Thread[p]
			row = append(row,
				fmt.Sprintf("%.2f", r.Freq.Millis(h.Max())),
				fmt.Sprintf("%.2f", r.Freq.Millis(h.Quantile(0.999))))
		}
		t.AddRow(row...)
	}
	if err := t.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prioritysweep:", err)
		os.Exit(1)
	}
	fmt.Println("\nExpected shape: NT shows a cliff at the worker's priority — two orders of")
	fmt.Println("magnitude once the measurement thread clears 24 — while Windows 98 is flat")
	fmt.Println("across the band: its scheduler-locked windows stall every priority equally,")
	fmt.Println("so no priority buys a Win98 driver its way out (§4.2, §6).")
	if err := run.Wait(); err != nil {
		cli.FailCampaign("prioritysweep", run, obs, err)
	}
	if err := obs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "prioritysweep:", err)
		os.Exit(1)
	}
}
