package main

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/pprof"
	"time"
)

// The clock helpers below are the benchmark's only wall-clock reads.
// Timing calls is what the benchmark does; every input it generates
// still derives from --seed.

//rtlint:allow determinism -- the benchmark times calls on the wall clock; its inputs stay seed-derived
func now() time.Time { return time.Now() }

//rtlint:allow determinism -- the benchmark times calls on the wall clock; its inputs stay seed-derived
func since(t time.Time) time.Duration { return time.Since(t) }

//rtlint:allow determinism -- readiness polling waits on the wall clock
func after(d time.Duration) <-chan time.Time { return time.After(d) }

// usSince returns the microseconds elapsed since t.
func usSince(t time.Time) float64 { return float64(since(t).Nanoseconds()) / 1e3 }

// profiler collects CPU profiles of the traced passes. Each traced
// pass is profiled on its own, so untraced passes in between stay
// unprofiled; the samples of all traced passes are folded together.
type profiler struct {
	on       bool
	buf      bytes.Buffer
	samples  []stackSample
	err      error
	profiled bool
}

func newProfiler(on bool) *profiler { return &profiler{on: on} }

func (p *profiler) start() {
	if !p.on || p.err != nil {
		return
	}
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
		return
	}
	p.profiled = true
}

func (p *profiler) stop() {
	if !p.on || !p.profiled {
		return
	}
	pprof.StopCPUProfile()
	p.profiled = false
	s, err := parseProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	p.samples = append(p.samples, s...)
}

// record writes the partition and nested shares, plus the per-job
// layer costs when jobs > 0 and the per-cell decide time when cells
// > 0.
func (p *profiler) record(o *outcome, jobs, cells int64) error {
	if p.err != nil {
		return p.err
	}
	if len(p.samples) == 0 {
		return errors.New("perfbench: traced passes collected no profile samples")
	}
	a := attribute(p.samples)
	a.record(o)
	if jobs > 0 {
		per := func(layer string) float64 { return float64(a.layerNS[layer]) / float64(jobs) }
		o.values["sched.self_ns_per_job"] = per("sched")
		o.values["eventq.self_ns_per_job"] = per("eventq")
		o.values["trace.check_ns_per_job"] = per("trace")
		o.values["chaos.respond_ns_per_job"] = per("chaos")
	}
	if cells > 0 {
		o.values["core.decide_ms_per_cell"] = float64(a.decideNS) / 1e6 / float64(cells)
	}
	return nil
}

// gcMeter sums allocation and collection counts over the untraced
// passes it brackets.
type gcMeter struct {
	bytes, cycles uint64
	m0            runtime.MemStats
}

func (g *gcMeter) begin() { runtime.ReadMemStats(&g.m0) }

func (g *gcMeter) end() {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	g.bytes += m1.TotalAlloc - g.m0.TotalAlloc
	g.cycles += uint64(m1.NumGC - g.m0.NumGC)
}

// record writes the per-op allocation and collection rates.
func (g *gcMeter) record(o *outcome, ops int64) {
	if ops <= 0 {
		return
	}
	o.values["gc.alloc_bytes_per_op"] = float64(g.bytes) / float64(ops)
	o.values["gc.cycles_per_kop"] = float64(g.cycles) * 1000 / float64(ops)
}
