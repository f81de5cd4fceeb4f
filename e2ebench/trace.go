package main

// Tracing for the traced session: spans recorded in memory around each
// call the benchmark makes into the program, and a CPU profile folded into
// flat CPU share per package. Both are written out when the run ends.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. ID names the cell or
// campaign the call served; Parent is the index of the enclosing span in
// the same trace, or -1.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil *tracer records nothing, so untraced
// sessions share the traced code path at the cost of a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span whose end is set later by close; it returns the
// span's index (-1 on a nil tracer).
func (t *tracer) open(name, id string, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name, id string, parent int, start, end time.Time) {
	t.close(t.open(name, id, parent, start), end)
}

// durations returns the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// layerTime is the total and self time of all spans sharing a name.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part of its interval that its children cover
// (children of one parent may overlap, so their union is subtracted).
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += ms(s.dur())
		lt.Self += ms(s.dur() - covered(s, kids[i]))
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			reach = hi
		}
	}
	return time.Duration(sum)
}

// profiler takes a CPU profile into memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the flat CPU share of each layer, in
// percent of all samples.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	flat, err := flatByFunction(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range flat {
		total += v
	}
	shares := map[string]float64{}
	for fn, v := range flat {
		shares[layerOf(fn)] += 100 * v / total
	}
	return shares, nil
}

// layerOf maps a function name from the profile to its layer: the
// package's path below wdmlat/internal/ for the program's own packages,
// "runtime" for the Go runtime, and the import path for the rest of the
// standard library.
func layerOf(fn string) string {
	name := fn
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(name, '/')
	pkg := name
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		pkg = name[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "wdmlat/internal/"):
		pkg = strings.TrimPrefix(pkg, "wdmlat/internal/")
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[i+1:] // campaign/store -> store
		}
		return pkg
	case strings.HasPrefix(pkg, "wdmlat/"):
		return "bench"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		!strings.Contains(name, "."): // assembly stubs such as gogo
		return "runtime"
	}
	return pkg
}

// flatByFunction decodes a gzipped pprof CPU profile and sums each
// sample's last value (CPU nanoseconds) against the innermost function of
// its leaf location: the flat time pprof -top reports.
func flatByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string table index
		strs      []string
		decodeErr error
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			decodeErr = errors.Join(decodeErr, walkProto(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1: // location_id
					for _, id := range varints(v, b) {
						if first {
							s.leaf, first = id, false
						}
					}
				case 2: // value
					if vs := varints(v, b); len(vs) > 0 {
						s.value = int64(vs[len(vs)-1])
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			gotLine := false
			decodeErr = errors.Join(decodeErr, walkProto(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if !gotLine {
						gotLine = true
						decodeErr = errors.Join(decodeErr, walkProto(b, func(f int, v uint64, _ []byte) {
							if f == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, walkProto(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	flat := map[string]float64{}
	for _, s := range samples {
		name := "unknown"
		if i := funcName[locFunc[s.leaf]]; i > 0 && int(i) < len(strs) {
			name = strs[i]
		}
		flat[name] += float64(s.value)
	}
	return flat, nil
}

// walkProto calls fn for each field of one protobuf message: varint
// fields carry their value in v, length-delimited ones their bytes in b.
func walkProto(msg []byte, fn func(field int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(field, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			fn(field, binary.LittleEndian.Uint64(msg), nil)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			fn(field, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			fn(field, uint64(binary.LittleEndian.Uint32(msg)), nil)
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints returns a repeated varint field's values: v itself when the
// field was encoded unpacked, the decoded contents of b when packed.
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

// writeTrace writes the run's trace file: the noise record, the spans, the
// per-name self times and the package breakdown.
func writeTrace(path string, noise map[string]any, t *tracer, shares map[string]float64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := map[string]any{
		"noise":     noise,
		"spans":     spans,
		"self_time": t.selfTimes(),
		"cpu_share": shares,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
