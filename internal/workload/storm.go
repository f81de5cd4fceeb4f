package workload

import (
	"math"

	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
)

// Storm is the interrupt-storm workload: a sustained stream of received
// packets at a configurable offered rate, the stress axis the frontier
// sweep bisects. Unlike the web class's discrete download bursts, the
// storm never idles — it is the "external interrupts at a sustained rate"
// stress of Horst et al., pointed at the paper's NIC path.
//
// Determinism: arrivals live on a fixed lattice of 2^18 slots per second
// (stormBaseHz), each slot kept independently with probability
// PPS/stormBaseHz — a Bernoulli-thinned Poisson approximation whose thinning
// decisions depend only on the generator's split RNG stream. The generator
// skips directly from one kept slot to the next by sampling the geometric
// gap (one engine event per kept arrival, not per slot), so a 4k-pps cell
// costs no more events than it delivers packets, and the arrival sequence
// for a given (seed, rate) never depends on what the machine does with the
// packets.
type Storm struct {
	m   *ospersona.Machine
	rng *sim.RNG
	cfg StormConfig

	slot      sim.Cycles // engine cycles per lattice slot
	keepProb  float64
	logSkip   float64 // math.Log(1-keepProb), the geometric gap's divisor
	offered   uint64
	samples   []BacklogSample
	sampleGap sim.Cycles
	on        bool

	// arriveFn and sampleFn are s.arrive and s.sample bound once: a method
	// value allocates a closure each time it is evaluated, and arrivals
	// re-arm once per offered packet.
	arriveFn func(sim.Time)
	sampleFn func(sim.Time)
}

// stormBaseHz is the arrival lattice rate: 2^18 slots per second, giving
// power-of-two-friendly thinning probabilities and a ceiling comfortably
// above any knee the personas can sustain.
const stormBaseHz = 1 << 18

// stormIndicationBatch is the offered-packet stride between applications of
// the OS's NetBurst response (mask/lock/DPC-work/work-item draws): one
// response per 256 offered packets keeps the OS-side interference
// proportional to load without a full burst response per packet.
const stormIndicationBatch = 256

// StormConfig parameterizes a storm.
type StormConfig struct {
	// PPS is the offered packet rate (packets per second). It is capped at
	// stormBaseHz (262144), the lattice ceiling.
	PPS float64
	// Bytes is the frame size; default 1460 (full LAN MTU payload).
	Bytes int
	// SampleEveryMS is the backlog sampling period; default 50 ms.
	SampleEveryMS float64
}

// BacklogSample is one periodic observation of the NIC ring, the raw
// series the livelock criterion inspects for backlog growth.
type BacklogSample struct {
	T         sim.Time // observation time
	Pending   int      // packets waiting in the ring
	Delivered uint64   // cumulative packets handed to the driver
	Dropped   uint64   // cumulative ring overflows
}

// NewStorm creates a stopped storm bound to a machine. The machine should
// have storm accounting enabled (ospersona.Machine.EnableStormAccounting)
// before traffic flows if per-packet latency is wanted.
func NewStorm(m *ospersona.Machine, cfg StormConfig) *Storm {
	if cfg.PPS <= 0 {
		panic("workload: non-positive storm rate")
	}
	if cfg.PPS > stormBaseHz {
		cfg.PPS = stormBaseHz
	}
	if cfg.Bytes == 0 {
		cfg.Bytes = 1460
	}
	if cfg.Bytes <= 0 {
		panic("workload: invalid storm frame size")
	}
	if cfg.SampleEveryMS == 0 {
		cfg.SampleEveryMS = 50
	}
	s := &Storm{
		m:         m,
		rng:       m.Eng.RNG().Split(),
		cfg:       cfg,
		keepProb:  cfg.PPS / stormBaseHz,
		sampleGap: m.MS(cfg.SampleEveryMS),
	}
	// At the lattice ceiling keepProb is 1 and logSkip is -Inf; scheduleNext
	// never divides by it there.
	s.logSkip = math.Log(1 - s.keepProb)
	s.arriveFn = s.arrive
	s.sampleFn = s.sample
	// One lattice slot in cycles: freq/2^18. At the default 300 MHz this is
	// 1144 cycles — comfortably above 1, so distinct slots stay distinct.
	s.slot = sim.Cycles(int64(m.Freq()) / stormBaseHz)
	if s.slot < 1 {
		s.slot = 1
	}
	return s
}

// Start begins the arrival stream and backlog sampling.
func (s *Storm) Start() {
	if s.on {
		panic("workload: storm already started")
	}
	s.on = true
	s.scheduleNext()
	s.m.Eng.After(s.sampleGap, "storm.sample", s.sampleFn)
}

// Stop halts arrivals and sampling (pending engine events drain inert).
func (s *Storm) Stop() { s.on = false }

// Offered returns the number of packets offered so far.
func (s *Storm) Offered() uint64 { return s.offered }

// Samples returns the backlog series collected so far. The slice is owned
// by the storm; copy before mutating.
func (s *Storm) Samples() []BacklogSample { return s.samples }

// scheduleNext samples the geometric gap to the next kept lattice slot and
// schedules its arrival: P(gap = k) = p(1-p)^(k-1), drawn by inversion.
func (s *Storm) scheduleNext() {
	gap := 1
	if s.keepProb < 1 {
		u := s.rng.Float64()
		gap = 1 + int(math.Log(1-u)/s.logSkip)
	}
	s.m.Eng.After(sim.Cycles(gap)*s.slot, "storm.rx", s.arriveFn)
}

func (s *Storm) arrive(sim.Time) {
	if !s.on {
		return
	}
	s.offered++
	s.m.StormPacket(s.cfg.Bytes)
	if s.offered%stormIndicationBatch == 0 {
		s.m.StormBatchResponse()
	}
	s.scheduleNext()
}

func (s *Storm) sample(sim.Time) {
	if !s.on {
		return
	}
	s.samples = append(s.samples, BacklogSample{
		T:         s.m.Now(),
		Pending:   s.m.NIC.Pending(),
		Delivered: s.m.NIC.Delivered(),
		Dropped:   s.m.NIC.Dropped(),
	})
	s.m.Eng.After(s.sampleGap, "storm.sample", s.sampleFn)
}
