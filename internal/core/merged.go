package core

// Multi-run merging: the paper collects hours of data per class; a single
// virtual run resolves tails down to its own span. Pooling several
// independently-seeded runs into one result (Merge) deepens the resolvable
// tail in proportion to the pooled span (longer collections and more seeds
// are statistically equivalent here because the generators are stationary).
// Replicas are scheduled and collected by internal/campaign, which merges
// them in replica-index order so the pooled result is independent of which
// worker finished first.

import (
	"strconv"

	"wdmlat/internal/causetool"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
	"wdmlat/internal/workload"
)

// ReplicaSeed derives the seed of replica i of a pooled run. Replica 0
// keeps the base seed (so a one-replica pool is a plain Run); later replicas
// hash their index against the base through SplitMix64. The earlier
// additive scheme (base + i*7919) let campaigns with stride-offset base
// seeds share entire replica streams (base 3 replica 1 == base 7922
// replica 0); a keyed hash cannot alias that way.
func ReplicaSeed(base uint64, i int) uint64 {
	if i == 0 {
		return base
	}
	return sim.DeriveSeed(base, "replica/"+strconv.Itoa(i))
}

// Clone returns a deep copy of r that Merge can accumulate into without
// mutating r: histograms and the priority maps are copied, the episode
// slice is re-sliced (episodes themselves are never mutated by pooling).
// Collectors that hand out a stored result more than once must merge into
// a clone, or the second collection double-pools the first one's data.
func (r *Result) Clone() *Result {
	cp := *r
	cloneH := func(h *stats.Histogram) *stats.Histogram {
		if h == nil {
			return nil
		}
		return h.Clone()
	}
	cp.DpcInt = cloneH(r.DpcInt)
	cp.DpcIntOracle = cloneH(r.DpcIntOracle)
	cp.IntLat = cloneH(r.IntLat)
	cp.DpcLat = cloneH(r.DpcLat)
	if r.Thread != nil {
		cp.Thread = make(map[int]*stats.Histogram, len(r.Thread))
		for p, h := range r.Thread {
			cp.Thread[p] = cloneH(h)
		}
	}
	if r.HwToThread != nil {
		cp.HwToThread = make(map[int]*stats.Histogram, len(r.HwToThread))
		for p, h := range r.HwToThread {
			cp.HwToThread[p] = cloneH(h)
		}
	}
	if r.Episodes != nil {
		cp.Episodes = append([]causetool.Episode(nil), r.Episodes...)
	}
	cp.NicLat = cloneH(r.NicLat)
	if r.Storm != nil {
		st := *r.Storm
		st.Backlog = append([]workload.BacklogSample(nil), r.Storm.Backlog...)
		cp.Storm = &st
	}
	if r.Pacing != nil {
		p := *r.Pacing
		p.FrameLat = cloneH(r.Pacing.FrameLat)
		p.Jitter = cloneH(r.Pacing.Jitter)
		cp.Pacing = &p
	}
	return &cp
}

// Merge pools other into r: histograms, counters and episode lists are
// accumulated. Histogram and counter pooling is order-independent; the
// episode list preserves merge order, so callers pooling replicas must
// merge in a fixed (replica-index) order for full determinism.
func (r *Result) Merge(other *Result) {
	r.Observed += other.Observed
	r.Samples += other.Samples
	r.DpcInt.Merge(other.DpcInt)
	r.DpcIntOracle.Merge(other.DpcIntOracle)
	if r.IntLat != nil && other.IntLat != nil {
		r.IntLat.Merge(other.IntLat)
	}
	if r.DpcLat != nil && other.DpcLat != nil {
		r.DpcLat.Merge(other.DpcLat)
	}
	for p, h := range r.Thread {
		if oh, ok := other.Thread[p]; ok {
			h.Merge(oh)
		}
	}
	for p, h := range r.HwToThread {
		if oh, ok := other.HwToThread[p]; ok {
			h.Merge(oh)
		}
	}
	r.Counters.ISRCycles += other.Counters.ISRCycles
	r.Counters.DPCCycles += other.Counters.DPCCycles
	r.Counters.EpisodeCycles += other.Counters.EpisodeCycles
	r.Counters.SwitchCycles += other.Counters.SwitchCycles
	r.Counters.ThreadCycles += other.Counters.ThreadCycles
	r.Counters.Interrupts += other.Counters.Interrupts
	r.Counters.DPCs += other.Counters.DPCs
	r.Counters.Switches += other.Counters.Switches
	r.Counters.Episodes += other.Counters.Episodes
	if other.Counters.MaxLockEpisode > r.Counters.MaxLockEpisode {
		r.Counters.MaxLockEpisode = other.Counters.MaxLockEpisode
	}
	if other.Counters.MaxMaskEpisode > r.Counters.MaxMaskEpisode {
		r.Counters.MaxMaskEpisode = other.Counters.MaxMaskEpisode
	}
	r.Counters.NMIs += other.Counters.NMIs
	r.Counters.NMIsDropped += other.Counters.NMIsDropped
	r.AudioUnderruns += other.AudioUnderruns
	r.AudioPeriods += other.AudioPeriods
	r.Episodes = append(r.Episodes, other.Episodes...)
	if r.NicLat != nil && other.NicLat != nil {
		r.NicLat.Merge(other.NicLat)
	}
	if r.Storm != nil && other.Storm != nil {
		r.Storm.Offered += other.Storm.Offered
		r.Storm.Delivered += other.Storm.Delivered
		r.Storm.Dropped += other.Storm.Dropped
		r.Storm.Asserts += other.Storm.Asserts
		// Backlog trajectories concatenate in merge (replica) order; the
		// livelock criterion re-splits them where T resets.
		r.Storm.Backlog = append(r.Storm.Backlog, other.Storm.Backlog...)
	}
	if r.Pacing != nil && other.Pacing != nil {
		r.Pacing.VBlanks += other.Pacing.VBlanks
		r.Pacing.Releases += other.Pacing.Releases
		r.Pacing.Completions += other.Pacing.Completions
		r.Pacing.Misses += other.Pacing.Misses
		r.Pacing.Skips += other.Pacing.Skips
		if other.Pacing.MaxLateness > r.Pacing.MaxLateness {
			r.Pacing.MaxLateness = other.Pacing.MaxLateness
		}
		r.Pacing.FrameLat.Merge(other.Pacing.FrameLat)
		r.Pacing.Jitter.Merge(other.Pacing.Jitter)
	}
}
