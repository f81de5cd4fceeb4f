// latbench runs the WDM latency measurement tools on a simulated Windows
// NT 4.0 and/or Windows 98 machine under the selected application stress
// loads and analyses the measured OS x class matrix. Per OS it prints the
// Figure 4 panels (with -scanner, Figure 5's scanner-on distributions) as
// log-log series, then the Table 3 hourly/daily/weekly worst cases, the
// Figure 6 and 7 MTTF-to-underrun tables for DPC-based (t = 4 ms) and
// thread-based (t = 16 ms) softmodem datapumps, and the §5.2
// pseudo-worst-case schedulability table. With -csv it prints only the
// Figure 4 series, as CSV for external plotting.
//
// Usage:
//
//	latbench [-os both|all] [-workload all] [-duration 10m] [-seed 1]
//	         [-runs N] [-jobs N] [-checkpoint dir] [-scanner] [-sound]
//	         [-csv] [-oracle] [-config] [-progress] [-telemetry out.json]
//	         [-cpuprofile f] [-memprofile f] [-pprof :6060]
//
// With -checkpoint, every finished cell is persisted under dir and a
// re-run skips cells already completed; SIGINT/SIGTERM stops dispatching
// new cells, drains the running ones into the store, and exits non-zero
// naming the cells that were dropped.
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
	"wdmlat/internal/figures"
	"wdmlat/internal/ospersona"
	"wdmlat/internal/report"
	"wdmlat/internal/workload"
)

func main() {
	osFlag := flag.String("os", "both", "operating system: nt4, win98 or both")
	wlFlag := flag.String("workload", "all", "stress class: business, workstation, games, web or all")
	duration := flag.Duration("duration", 10*time.Minute, "virtual collection time per run")
	seed := flag.Uint64("seed", 1, "simulation seed")
	scanner := flag.Bool("scanner", false, "install the Plus! 98 virus scanner (Figure 5)")
	sound := flag.Bool("sound", false, "enable the default Windows sound scheme")
	csv := flag.Bool("csv", false, "emit CSV series instead of ASCII charts")
	config := flag.Bool("config", false, "print the Table 2 system configurations and exit")
	runs := flag.Int("runs", 1, "independent replicas to pool per cell (deepens tails)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	oracle := flag.Bool("oracle", false, "plot ground-truth DPC-interrupt latency instead of the tool's estimate")
	checkpoint := flag.String("checkpoint", "", "checkpoint directory: persist finished cells and skip them on re-run")
	precf := cli.AddPrecisionFlags(flag.CommandLine)
	obs := cli.NewObs("latbench", flag.CommandLine)
	cli.AddVersionFlag("latbench", flag.CommandLine)
	flag.Parse()
	fatal(obs.Start())

	if *config {
		printConfigs()
		return
	}

	oses, err := cli.ParseOSList(*osFlag)
	fatal(err)
	classes, err := cli.ParseWorkloadList(*wlFlag)
	fatal(err)
	pol, err := precf.Policy()
	fatal(err)
	if pol != nil && *runs != 1 {
		fatal(fmt.Errorf("-precision chooses replica counts adaptively; drop -runs"))
	}

	// Variant names the campaign cell keys so that e.g. the -scanner cells
	// draw seed streams independent of the headline cells.
	variant := "default"
	if *scanner {
		variant = "scanner"
	}
	if *sound {
		variant += "+sound"
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	st, err := cli.OpenStore(*checkpoint, obs.Registry)
	fatal(err)
	run := campaign.New(campaign.Options{BaseSeed: *seed, Jobs: *jobs, Context: ctx, Store: st, Metrics: obs.Registry})
	obs.StartProgress(run)
	base := core.RunConfig{Duration: *duration, VirusScanner: *scanner, SoundScheme: *sound}
	var byOS map[ospersona.OS]map[workload.Class]*core.Result
	var ads map[string]campaign.Adaptive
	if pol != nil {
		byOS, ads, err = run.RunMatrixAdaptive(oses, classes, variant, base, *pol)
	} else {
		byOS, err = run.RunMatrix(oses, classes, variant, base, *runs)
	}
	if err != nil {
		cli.FailCampaign("latbench", run, obs, err)
	}

	for _, osSel := range oses {
		// One Figure 4 panel set per OS: DPC-interrupt latency plus the
		// two thread latencies, one series per workload.
		results := byOS[osSel]
		for _, wl := range classes {
			r := results[wl]
			label := wl.String()

			fmt.Printf("# %s / %s: %d samples over %v virtual",
				r.OSName, label, r.Samples, *duration)
			if *scanner {
				fmt.Printf(" (virus scanner ON)")
			}
			if *sound {
				fmt.Printf(" (default sound scheme)")
			}
			fmt.Println()
			fmt.Printf("#   DPC-interrupt latency: mean %.3f ms, max %.2f ms\n",
				r.DpcInt.MeanMillis(), r.Freq.Millis(r.DpcInt.Max()))
			for _, p := range []int{28, 24} {
				fmt.Printf("#   RT %d thread latency:   mean %.3f ms, max %.2f ms\n",
					p, r.Thread[p].MeanMillis(), r.Freq.Millis(r.Thread[p].Max()))
			}
			if pol != nil {
				p := pol.Normalized()
				ad := ads[campaign.MatrixKey(osSel, wl, variant)]
				fmt.Printf("#   adaptive: %d replicas, converged=%v\n", ad.Replicas, ad.Converged)
				for _, q := range p.Quantiles {
					lo, est, hi := r.DpcInt.QuantileCI(q, p.Confidence)
					fmt.Printf("#   DPC p%g: %s ms at %.0f%% confidence\n", q*100,
						report.CIMillis(r.Freq.Millis(est), r.Freq.Millis(lo), r.Freq.Millis(hi)),
						p.Confidence*100)
				}
			}
		}

		dpcSeries, t28Series, t24Series := figures.Figure4Panels(results)
		if *oracle {
			dpcSeries = dpcSeries[:0]
			for _, wl := range classes {
				dpcSeries = append(dpcSeries, report.NewSeries(wl.String(), results[wl].DpcIntOracle, 0.125, 128))
			}
		}
		osName := ospersona.ProfileFor(osSel).Name
		poolDesc := fmt.Sprintf("%v x %d per class", *duration, *runs)
		if pol != nil {
			poolDesc = fmt.Sprintf("%v x adaptive(w=%g) per class", *duration, pol.RelWidth)
		}
		if *csv {
			// In adaptive mode the CSV carries DKW confidence-band columns,
			// so external plots can shade each CCDF curve's uncertainty.
			if pol != nil && !*oracle {
				conf := pol.Normalized().Confidence
				dpcB, t28B, t24B := figures.Figure4BandPanels(results, conf)
				fmt.Printf("\n## %s DPC interrupt latency\n", osName)
				fatal(report.WriteBandCSV(os.Stdout, dpcB))
				fmt.Printf("\n## %s RT-28 thread latency\n", osName)
				fatal(report.WriteBandCSV(os.Stdout, t28B))
				fmt.Printf("\n## %s RT-24 thread latency\n", osName)
				fatal(report.WriteBandCSV(os.Stdout, t24B))
				continue
			}
			fmt.Printf("\n## %s DPC interrupt latency\n", osName)
			fatal(report.WriteCSV(os.Stdout, dpcSeries))
			fmt.Printf("\n## %s RT-28 thread latency\n", osName)
			fatal(report.WriteCSV(os.Stdout, t28Series))
			fmt.Printf("\n## %s RT-24 thread latency\n", osName)
			fatal(report.WriteCSV(os.Stdout, t24Series))
			continue
		}
		fmt.Println()
		fatal(report.WriteLogLog(os.Stdout,
			fmt.Sprintf("%s DPC Interrupt Latency in Milliseconds (Figure 4)", osName), dpcSeries))
		fmt.Println()
		fatal(report.WriteLogLog(os.Stdout,
			fmt.Sprintf("%s Kernel Mode Thread (RT Priority 28) Latency in Millisecs (Figure 4)", osName), t28Series))
		fmt.Println()
		fatal(report.WriteLogLog(os.Stdout,
			fmt.Sprintf("%s Kernel Mode Thread (RT Priority 24) Latency in Millisecs (Figure 4)", osName), t24Series))

		// The analyses of the same cells: worst cases over usage
		// horizons, buffer-underrun MTTF, and schedulability.
		fmt.Println()
		fatal(figures.Table3(results, fmt.Sprintf(
			"Table 3: Observed Hourly, Daily and Weekly Worst Case %s Latencies (in ms.)\n"+
				"(collection %s; horizons in heavy-use time via MS-Test compression)",
			osName, poolDesc)).Write(os.Stdout))
		fmt.Println()
		fatal(figures.Figure6(results, osName).Write(os.Stdout))
		fmt.Println()
		fatal(figures.Figure7(results, osName).Write(os.Stdout))
		fmt.Println("('>' marks censored points: no event beyond that slack was observed;")
		fmt.Println(" the value is the lower bound supported by the collection span.)")
		fmt.Println()
		fatal(figures.Sec52Table(results, osName).Write(os.Stdout))
	}
	// Every cell was collected above; a residual Wait error means the
	// checkpoint store could not persist something — fail loudly, or the
	// next resume would silently re-run those cells.
	if err := run.Wait(); err != nil {
		cli.FailCampaign("latbench", run, obs, err)
	}
	fatal(obs.Close())
}

func printConfigs() {
	for _, osSel := range []ospersona.OS{ospersona.NT4, ospersona.Win98} {
		fatal(figures.Table2(osSel).Write(os.Stdout))
		fmt.Println()
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "latbench:", err)
		os.Exit(1)
	}
}
