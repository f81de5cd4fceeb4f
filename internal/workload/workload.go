// Package workload implements the paper's four application stress classes
// (§3.1) as stochastic activity generators driving a simulated machine:
//
//   - Business: Business Winstone 97 (database/publishing/word processing)
//     driven by MS-Test "at speeds much faster than possible for a human" —
//     dense UI input, periodic file copy bursts, install/uninstall sweeps;
//   - Workstation: High-End Winstone 97 (CAD, photo editing, compilation) —
//     long CPU bursts, large file I/O, paging pressure on a 32 MB system;
//   - Games: Freespace/Unreal demo loops — a 30 fps frame loop with heavy
//     display/sound driver activity and level-load bursts;
//   - Web: browsing over a LAN "at speeds far in excess of a phone line" —
//     download bursts through the NIC, page rendering, media clips.
//
// Generators are OS-agnostic: the same stress runs against either
// personality, exactly as the paper runs the same Winstone scripts on both
// systems. Each class also carries the paper's time-compression factor
// (§3.1: MS-Test drives input ≥10× human speed for business, ~5× for
// workstation, 1× for game demos, ~4× for LAN web browsing), used to map
// collection time onto usage horizons for Table 3.
package workload

import (
	"fmt"

	"wdmlat/internal/ospersona"
	"wdmlat/internal/sim"
	"wdmlat/internal/stats"
)

// Class identifies one of the paper's four stress categories.
type Class int

// The four application stress loads of §3.1.
const (
	Business Class = iota
	Workstation
	Games
	Web
)

// Classes lists all four in the paper's presentation order.
var Classes = []Class{Business, Workstation, Games, Web}

// String implements fmt.Stringer, matching the paper's legend labels.
func (c Class) String() string {
	switch c {
	case Business:
		return "Business Apps"
	case Workstation:
		return "Workstation Apps"
	case Games:
		return "3D Games"
	case Web:
		return "Web Browsing"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// TimeCompression returns how much faster than real use the stress runs
// (§3.1): one hour of collection equals this many hours of heavy use.
func (c Class) TimeCompression() float64 {
	switch c {
	case Business:
		return 10 // "Winstone can drive input at least ten times as quickly"
	case Workstation:
		return 5 // "a more conservative 5 to 1 ratio"
	case Games:
		return 1 // "canned sequences of game play ... no speedup"
	case Web:
		return 4 // "an overall 4 to 1 ratio" for LAN browsing
	default:
		return 1
	}
}

// Usage returns the heavy-use pattern for Table 3's day/week horizons.
func (c Class) Usage() stats.UsageModel {
	switch c {
	case Business:
		return stats.OfficeUsage
	case Workstation:
		return stats.WorkstationUsage
	default:
		return stats.ConsumerUsage
	}
}

// Generator drives stress activity onto a machine until stopped.
type Generator struct {
	class Class
	m     *ospersona.Machine
	rng   *sim.RNG
	app   *ospersona.App
	on    bool
}

// New creates a generator of the given class bound to a machine. Start
// begins the stress; the paper's procedure is to start the measurement
// tools first, then launch the benchmark (§3.1.1) — follow the same order.
func New(class Class, m *ospersona.Machine) *Generator {
	return &Generator{
		class: class,
		m:     m,
		rng:   m.Eng.RNG().Split(),
	}
}

// Class returns the generator's stress class.
func (g *Generator) Class() Class { return g.class }

// Start launches the stress activity.
func (g *Generator) Start() {
	if g.on {
		panic("workload: generator already started")
	}
	g.on = true
	g.app = g.m.NewApp(fmt.Sprintf("stress.%v", g.class))
	switch g.class {
	case Business:
		g.startBusiness()
	case Workstation:
		g.startWorkstation()
	case Games:
		g.startGames()
	case Web:
		g.startWeb()
	}
}

// Stop halts further activity generation (in-flight operations drain; the
// audio pipeline started by the games/web classes stops with it).
func (g *Generator) Stop() {
	if !g.on {
		return
	}
	g.on = false
	if g.class == Games || g.class == Web {
		g.m.StopAudio()
	}
}

// delay draws one mean-exponential spacing (mean in ms) in cycles.
func (g *Generator) delay(mean float64) sim.Cycles {
	d := sim.Cycles(g.rng.Exp(float64(g.m.MS(mean))))
	if d < 1 {
		d = 1
	}
	return d
}

// loop schedules fn repeatedly with mean-exponential spacing (ms). The tick
// closure is allocated once per loop and re-armed on each firing, not
// wrapped anew per event: generators keep a dozen loops ticking for the
// whole collection, so per-firing closures would dominate the allocation
// profile.
func (g *Generator) loop(mean float64, label string, fn func()) {
	var tick func(sim.Time)
	tick = func(sim.Time) {
		if !g.on {
			return
		}
		fn()
		g.m.Eng.After(g.delay(mean), label, tick)
	}
	g.m.Eng.After(g.delay(mean), label, tick)
}

// --- Business Winstone 97 ---------------------------------------------------

func (g *Generator) startBusiness() {
	m := g.m
	// MS-Test keystroke/menu stream: a UI event every ~8 ms of activity,
	// in on/off bursts (scripted actions separated by application work).
	g.loop(8, "biz.ui", func() { m.UIEvent() })
	// Document work: spreadsheet recalcs, reformats — foreground compute.
	g.loop(120, "biz.compute", func() {
		g.app.Submit(ospersona.Op{Compute: sim.Cycles(g.rng.Exp(float64(m.MS(25))))})
	})
	// Saves and implicit "save as" copies: runs of writes.
	g.loop(400, "biz.save", func() {
		n := 2 + g.rng.Intn(8)
		for i := 0; i < n; i++ {
			m.FileOp(16*1024+g.rng.Intn(128*1024), true, nil)
		}
	})
	// Small reads: document and DLL traffic.
	g.loop(60, "biz.read", func() {
		m.FileOp(4*1024+g.rng.Intn(64*1024), false, nil)
	})
	// Install/uninstall sweeps between application suites ("each
	// application is installed via an InstallShield script, run ... and
	// then uninstalled"): extended file copying, the activity the paper
	// flags as the likely source of long latencies (§3.1.1).
	g.loop(8000, "biz.install", func() {
		n := 40 + g.rng.Intn(80)
		for i := 0; i < n; i++ {
			g.app.Submit(ospersona.Op{
				ReadBytes:  32*1024 + g.rng.Intn(256*1024),
				WriteBytes: 32*1024 + g.rng.Intn(256*1024),
			})
		}
	})
}

// --- High-End Winstone 97 ----------------------------------------------------

func (g *Generator) startWorkstation() {
	m := g.m
	// CAD/photo-editing/compile: long foreground compute bursts.
	g.loop(150, "wks.compute", func() {
		g.app.Submit(ospersona.Op{Compute: sim.Cycles(g.rng.Exp(float64(m.MS(80))))})
	})
	// Large file I/O: image loads, object files.
	g.loop(90, "wks.io", func() {
		g.app.Submit(ospersona.Op{ReadBytes: 128*1024 + g.rng.Intn(1<<20)})
	})
	g.loop(300, "wks.write", func() {
		m.FileOp(64*1024+g.rng.Intn(512*1024), true, nil)
	})
	// 32 MB of RAM under workstation apps: recurring paging bursts.
	g.loop(250, "wks.paging", func() {
		m.PageFaultBurst(4 + g.rng.Intn(24))
	})
	// Occasional UI (dialogs, tool switches).
	g.loop(100, "wks.ui", func() { m.UIEvent() })
}

// --- 3D games ----------------------------------------------------------------

func (g *Generator) startGames() {
	m := g.m
	// The frame loop: ~30 fps, each frame rendering plus game logic.
	g.loop(33, "game.frame", func() {
		m.RenderFrame()
		g.app.Submit(ospersona.Op{Compute: sim.Cycles(g.rng.Exp(float64(m.MS(18))))})
	})
	// Continuous game audio.
	m.StartAudio(ospersona.AudioConfig{PeriodMS: 16})
	// Level/asset streaming from disk.
	g.loop(700, "game.stream", func() {
		n := 2 + g.rng.Intn(6)
		for i := 0; i < n; i++ {
			m.FileOp(64*1024+g.rng.Intn(512*1024), false, nil)
		}
	})
	// Input sampling (far below MS-Test rates).
	g.loop(50, "game.input", func() { m.UIEvent() })
}

// --- Web browsing -------------------------------------------------------------

func (g *Generator) startWeb() {
	m := g.m
	// Page downloads over the LAN: bursts of full-size frames.
	g.loop(250, "web.download", func() {
		bursts := 1 + g.rng.Intn(4)
		for i := 0; i < bursts; i++ {
			i := i
			g.m.Eng.After(sim.Cycles(i)*m.MS(15), "web.burst", func(sim.Time) {
				if g.on {
					m.NetDeliver(10+g.rng.Intn(40), 1460)
				}
			})
		}
		// Cache writes for the downloaded objects.
		m.FileOp(16*1024+g.rng.Intn(256*1024), true, nil)
	})
	// Rendering and viewer launches (Acrobat, Ghostview, Word — §3.1.3).
	g.loop(500, "web.render", func() {
		g.app.Submit(ospersona.Op{
			Compute:   sim.Cycles(g.rng.Exp(float64(m.MS(60)))),
			ReadBytes: 64*1024 + g.rng.Intn(512*1024),
		})
	})
	// Scrolling and link clicks.
	g.loop(40, "web.ui", func() { m.UIEvent() })
	// Streaming media clips (RealPlayer/Shockwave): periodic audio.
	m.StartAudio(ospersona.AudioConfig{PeriodMS: 24})
}
