package main

// CPU-profile attribution. The benchmark profiles itself with
// runtime/pprof during traced passes and folds the samples into this
// repository's layers. The profile is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto); the few fields read
// here are decoded directly so the benchmark needs nothing beyond the
// standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one profile sample: its CPU time and its frames'
// function names, innermost first (inlined frames included).
type stackSample struct {
	ns     int64
	frames []string
}

// pbField is one decoded protocol-buffer field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint or fixed value
	b    []byte // length-delimited payload
}

var errTruncated = errors.New("perfbench: truncated profile")

// pbFields decodes every top-level field of a protocol-buffer message.
func pbFields(msg []byte) ([]pbField, error) {
	var out []pbField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errTruncated
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, errTruncated
			}
			f.v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, errTruncated
			}
			f.b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, errTruncated
			}
			f.v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return nil, fmt.Errorf("perfbench: profile wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts returns a repeated integer field's values, which the encoder
// writes either packed (one length-delimited run) or one per field.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire != 2 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped CPU profile into samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		types   [][2]int64              // sample types as (type, unit) string indexes
	)
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var st [2]int64
			for _, s := range sub {
				if s.num == 1 || s.num == 2 { // type, unit
					st[s.num-1] = int64(s.v)
				}
			}
			types = append(types, st)
		case 2: // sample
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var rs rawSample
			for _, s := range sub {
				vs, err := pbInts(s)
				if err != nil {
					return nil, err
				}
				switch s.num {
				case 1:
					rs.locs = append(rs.locs, vs...)
				case 2:
					rs.vals = append(rs.vals, vs...)
				}
			}
			samples = append(samples, rs)
		case 4: // location
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 4: // line
					line, err := pbFields(s.b)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // function
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 2:
					name = int64(s.v)
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
	}
	nsIndex := -1 // value index of cpu/nanoseconds
	for i, st := range types {
		if int(st[0]) < len(strs) && int(st[1]) < len(strs) &&
			strs[st[0]] == "cpu" && strs[st[1]] == "nanoseconds" {
			nsIndex = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, rs := range samples {
		if nsIndex < 0 || nsIndex >= len(rs.vals) {
			return nil, errors.New("perfbench: profile sample without a cpu value")
		}
		s := stackSample{ns: int64(rs.vals[nsIndex])}
		for _, loc := range rs.locs {
			for _, fn := range locs[loc] {
				if i := funcs[fn]; i >= 0 && int(i) < len(strs) {
					s.frames = append(s.frames, strs[i])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// pkgOf returns the import path of a profiled function name, e.g.
// "rtoffload/internal/sched/eventq" for
// "rtoffload/internal/sched/eventq.(*Calendar).Pop".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// layerOf maps a package to the layer it belongs to, or "" for a
// package that is transparent: its time is charged to the nearest
// caller that has a layer (math/big under dbf is dbf time).
var layerOf = map[string]string{
	"rtoffload/internal/admitd":       "admitd",
	"rtoffload/internal/core":         "core",
	"rtoffload/internal/dbf":          "dbf",
	"rtoffload/internal/mckp":         "mckp",
	"rtoffload/internal/fleet":        "fleet",
	"rtoffload/internal/sched":        "sched",
	"rtoffload/internal/sched/eventq": "eventq",
	"rtoffload/internal/trace":        "trace",
	"rtoffload/internal/chaos":        "chaos",
	"rtoffload/internal/server":       "chaos",
	"rtoffload/internal/exp":          "exp",
	"net/http":                        "http",
	"net":                             "http",
	"net/textproto":                   "http",
	"encoding/json":                   "json",
	"main":                            "perfbench",
	"rtoffload/perfbench":             "perfbench", // the same code in its test binary
}

// gcRoots are the runtime functions under which a sample is garbage
// collection work, whoever triggered it.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// isOracle reports whether fn is one of the benchmark's own trace and
// oracle functions (named oracle*): their samples are instrumentation,
// not the system under test, and are left out of every share.
func isOracle(fn string) bool {
	pkg := pkgOf(fn)
	return layerOf[pkg] == "perfbench" && len(fn) > len(pkg) && strings.HasPrefix(fn[len(pkg)+1:], "oracle")
}

// nested are the function-level shares reported inside the partition:
// a sample counts toward one if any frame matches and no frame matches
// its exclusions.
var nested = []struct {
	metric  string
	match   []string
	exclude []string
}{
	{"core.exact_upgrade.share", []string{"rtoffload/internal/core.improveLoop"}, nil},
	{"core.repair.share", []string{"rtoffload/internal/core.repairDecision"}, nil},
	{"core.theorem3.share", []string{"rtoffload/internal/core.theorem3Cached", "rtoffload/internal/core.theorem3Of"}, nil},
	{"core.fleet_repair.share", []string{"rtoffload/internal/core.repairFleetDecision"},
		[]string{"rtoffload/internal/core.repairDecision"}},
}

// attribution is a profile folded by layer.
type attribution struct {
	totalNS  int64            // every sample outside the oracle
	layerNS  map[string]int64 // partition member → ns (gc and other included)
	nestedNS map[string]int64 // nested share metric → ns
	decideNS int64            // cumulative time under core.Decide
	oracleNS int64            // instrumentation time left out
}

func hasFrame(frames []string, names []string) bool {
	for _, f := range frames {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

// attribute folds samples: oracle samples are set aside, GC samples go
// to gc, every other sample goes to the innermost frame with a layer,
// or to other when no frame has one.
func attribute(samples []stackSample) attribution {
	a := attribution{layerNS: map[string]int64{}, nestedNS: map[string]int64{}}
	for _, s := range samples {
		oracle, gc := false, false
		for _, f := range s.frames {
			if isOracle(f) {
				oracle = true
			}
			if gcRoots[f] {
				gc = true
			}
		}
		if oracle {
			a.oracleNS += s.ns
			continue
		}
		a.totalNS += s.ns
		layer := "other"
		if gc {
			layer = "gc"
		} else {
			for _, f := range s.frames {
				if l := layerOf[pkgOf(f)]; l != "" {
					layer = l
					break
				}
			}
		}
		a.layerNS[layer] += s.ns
		for _, n := range nested {
			if hasFrame(s.frames, n.match) && !hasFrame(s.frames, n.exclude) {
				a.nestedNS[n.metric] += s.ns
			}
		}
		if hasFrame(s.frames, []string{"rtoffload/internal/core.Decide"}) {
			a.decideNS += s.ns
		}
	}
	return a
}

// share returns the layer's fraction of the attributed time.
func (a attribution) share(layer string) float64 {
	if a.totalNS == 0 {
		return 0
	}
	return float64(a.layerNS[layer]) / float64(a.totalNS)
}

// record writes the partition and nested shares into o.
func (a attribution) record(o *outcome) {
	for _, name := range partition {
		layer := strings.TrimSuffix(name, ".share")
		if name == "gc.cpu_share" {
			layer = "gc"
		}
		o.values[name] = a.share(layer)
	}
	for _, n := range nested {
		if a.totalNS > 0 {
			o.values[n.metric] = float64(a.nestedNS[n.metric]) / float64(a.totalNS)
		} else {
			o.values[n.metric] = 0
		}
	}
}
