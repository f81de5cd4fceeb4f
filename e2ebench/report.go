package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported value. N is the number of samples behind it
// (0 for counts and ratios); Note says which quantile a tail metric used
// when too few samples lay beyond the one its name asks for.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
}

type report struct{ rows []metric }

func (r *report) add(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // the metric does not apply to this workload
	}
	r.rows = append(r.rows, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *report) median(name string, xs []float64, unit string) {
	r.add(name, quantile(xs, 0.5), unit, len(xs))
}

// tail reports the quantile of xs that tailQ allows for want.
func (r *report) tail(name string, xs []float64, want float64, unit string) {
	q := tailQ(len(xs), want)
	r.add(name, quantile(xs, q), unit, len(xs))
	if q != want {
		r.rows[len(r.rows)-1].Note = fmt.Sprintf("p%.3g used: fewer than ten samples beyond p%.3g", 100*q, 100*want)
	}
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%-32s %16s %-6s %7s\n", "metric", "value", "unit", "n")
	for _, m := range r.rows {
		fmt.Fprintf(w, "%-32s %16.6g %-6s %7d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
}

func (r *report) json() map[string]any {
	out := map[string]any{}
	for _, m := range r.rows {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// endToEnd reports what a user of the workload sees, from the untraced
// sessions of a run: set-up and warm campaign times pooled over them,
// every other timing as the median of its value in each session, memory
// as the peak of the process, and the failures over the whole run.
func endToEnd(r *report, runs []*session, attempted, failed int) {
	var setup, warm []float64
	per := make([]report, len(runs))
	for i, s := range runs {
		setup = append(setup, s.setup...)
		warm = append(warm, s.warm...)
		p := &per[i]
		p.add("wall_s", s.timed.Seconds()/float64(len(s.campaigns)), "s", len(s.campaigns))
		p.add("sim_speed", s.simSecs/s.timed.Seconds(), "s/s", s.nCells)
		p.add("cells_per_s", float64(s.nCells)/s.timed.Seconds(), "1/s", s.nCells)
		p.median("cell_ms_p50", s.cells, "ms")
		p.tail("cell_ms_p90", s.cells, 0.9, "ms")
		p.median("campaign_s_p50", s.campaigns, "s")
		p.tail("campaign_s_p90", s.campaigns, 0.9, "s")
	}
	r.median("setup_s", setup, "s")
	for j, m := range per[0].rows {
		xs := make([]float64, len(per))
		n := 0
		for i := range per {
			xs[i] = per[i].rows[j].Value
			n += per[i].rows[j].N
		}
		r.add(m.Name, quantile(xs, 0.5), m.Unit, n)
		r.rows[len(r.rows)-1].Note = m.Note
	}
	r.median("warm_campaign_s_p50", warm, "s")
	r.add("max_rss_mib", maxRSSMiB(), "MiB", 0)
	r.add("ok_ratio", float64(attempted-failed)/float64(attempted), "ratio", attempted)
}

// perLayer reports the traced session's per-layer numbers; plain is the
// untraced session of the same run, for the tracing overhead.
func perLayer(r *report, s, plain *session) {
	perSimSec := func(n uint64) float64 { return float64(n) / s.simSecs }
	share := func(layer string) float64 { return s.shares[layer] }
	ratio := func(a, b uint64) float64 { return float64(a) / float64(b) }
	t := s.totals

	r.add("sim.events", float64(s.probe.events), "count", 0)
	r.add("sim.ns_per_event", s.probe.nsPerEvent, "ns", s.probe.reps)
	r.add("sim.cpu_share", share("sim"), "%", 0)
	r.add("runtime.cpu_share", share("runtime"), "%", 0)
	r.add("runtime.allocs_per_cell", float64(s.mallocs)/float64(s.nCells), "count", s.nCells)
	r.add("kernel.switches_per_sim_s", perSimSec(t.switches), "1/s", s.nCells)
	r.add("kernel.interrupts_per_sim_s", perSimSec(t.interrupts), "1/s", s.nCells)
	r.add("kernel.dpcs_per_sim_s", perSimSec(t.dpcs), "1/s", s.nCells)
	r.add("kernel.cpu_share", share("kernel"), "%", 0)
	r.add("hw.nic_coalesce_ratio", ratio(t.delivered, t.asserts), "ratio", 0)
	r.add("hw.nic_drop_ratio", ratio(t.dropped, t.offered), "ratio", 0)
	r.add("hw.cpu_share", share("hw"), "%", 0)
	r.add("workload.cpu_share", share("workload"), "%", 0)
	r.add("frontier.probes", s.extra["frontier.probes"], "count", 0)
	r.median("frontier.probe_ms_p50", s.tr.durations("frontier.probe"), "ms")
	r.add("stats.samples", float64(t.samples)/float64(len(s.campaigns)), "count", len(s.campaigns))
	r.add("stats.cpu_share", share("stats"), "%", 0)
	runs := s.tr.durations("core.Run")
	r.median("core.run_ms_p50", runs, "ms")
	r.tail("core.run_ms_p90", runs, 0.9, "ms")
	r.median("core.encode_ms", s.tr.durations("core.EncodeResult"), "ms")
	r.median("core.decode_ms", s.tr.durations("core.DecodeResult"), "ms")
	r.add("core.result_bytes", s.extra["core.result_bytes"], "bytes", 0)
	r.median("store.save_ms", s.tr.durations("store.Save"), "ms")
	r.median("store.load_ms", s.tr.durations("store.Load"), "ms")
	hits := s.reg.Counter("campaign_checkpoint_hits").Value()
	misses := s.reg.Counter("campaign_checkpoint_misses").Value()
	r.add("campaign.checkpoint_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	r.median("server.submit_ms", s.tr.durations("client.Submit"), "ms")
	r.median("server.lease_ms", s.tr.durations("http.lease"), "ms")
	r.median("server.complete_ms", s.tr.durations("http.complete"), "ms")
	r.median("server.result_ms", s.tr.durations("client.Result"), "ms")
	r.median("server.first_lease_wait_ms", s.tr.durations("fleet.first_lease_wait"), "ms")
	r.median("campaign.queue_wait_ms", s.tr.durations("server.queue_wait"), "ms")
	r.add("server.cache_hit_ratio", s.extra["server.cache_hit_ratio"], "ratio", 0)
	r.add("server.redispatched", float64(s.reg.Counter("fleet_cells_redispatched").Value()), "count", 0)
	r.add("client.retries", s.extra["client.retries"], "count", 0)
	for _, l := range [][2]string{{"core", "core"}, {"store", "store"}, {"server", "server"}, {"client", "client"}, {"json", "encoding/json"}} {
		r.add(l[0]+".cpu_share", share(l[1]), "%", 0)
	}
	// Tracing overhead: the traced session's cell throughput against the
	// untraced one's, in percent of the untraced.
	rate := func(x *session) float64 { return float64(x.nCells) / x.timed.Seconds() }
	r.add("trace.overhead_pct", 100*(rate(plain)-rate(s))/rate(plain), "%", 0)

	fmt.Println("flat CPU share by layer (traced timed region):")
	layers := make([]string, 0, len(s.shares))
	for l := range s.shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return s.shares[layers[i]] > s.shares[layers[j]] })
	for _, l := range layers {
		if s.shares[l] >= 0.1 {
			fmt.Printf("  %-24s %6.2f%%\n", l, s.shares[l])
		}
	}
	fmt.Println("span self time:")
	for _, lt := range s.tr.selfTimes() {
		fmt.Printf("  %-24s n=%-6d total %10.1f ms  self %10.1f ms\n", lt.Name, lt.Count, lt.Total, lt.Self)
	}
}
