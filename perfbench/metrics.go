package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"rtoffload/internal/stats"
)

// metricDef names one reported metric. The tables below are the
// benchmark's contract with BENCHMARK.json; the self-test checks that
// the two agree name for name and unit for unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run (--trace 0), in print
// order. Every workload reports every one of them; see README.md for
// what each means on the admit-* and campaign-* workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"peak_rss_mb", "MB"},
	{"accept_ratio", "ratio"},
	{"benefit", "benefit"},
	{"ok_share", "ratio"},
}

// perLayer lists the metrics of a traced run (--trace 1). A workload
// that does not exercise a layer reports 0 for it. The *.share metrics
// marked partition split the profiled CPU time of the timed phase and
// sum to 1; the other shares are nested inside one partition member.
var perLayer = []metricDef{
	// Spans around admitd and core calls.
	{"admitd.self_us_per_op", "us"},
	{"admitd.render_us_per_op", "us"},
	{"admitd.view_bytes_per_op", "bytes"},
	{"admitd.http.self_us_per_op", "us"},
	{"admitd.http.read_p50_us", "us"},
	{"admitd.http.write_p50_us", "us"},
	{"admitd.http.p99_us", "us"},
	{"core.admission_us_per_op", "us"},
	{"core.decide_ms_per_cell", "ms"},
	// Nested CPU-profile shares.
	{"core.exact_upgrade.share", "ratio"},
	{"core.repair.share", "ratio"},
	{"core.theorem3.share", "ratio"},
	{"core.fleet_repair.share", "ratio"},
	// Partition of the profiled CPU time.
	{"admitd.share", "ratio"},
	{"core.share", "ratio"},
	{"dbf.share", "ratio"},
	{"mckp.share", "ratio"},
	{"fleet.share", "ratio"},
	{"sched.share", "ratio"},
	{"eventq.share", "ratio"},
	{"trace.share", "ratio"},
	{"chaos.share", "ratio"},
	{"exp.share", "ratio"},
	{"http.share", "ratio"},
	{"json.share", "ratio"},
	{"perfbench.share", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"other.share", "ratio"},
	// Per-job costs of the simulation layers.
	{"sched.self_ns_per_job", "ns"},
	{"eventq.self_ns_per_job", "ns"},
	{"trace.check_ns_per_job", "ns"},
	{"chaos.respond_ns_per_job", "ns"},
	// Allocation and collection.
	{"gc.alloc_bytes_per_op", "bytes"},
	{"gc.cycles_per_kop", "count"},
	// Counts that a pure speed change must leave identical.
	{"sched.offload_share", "ratio"},
	// Diagnostics.
	{"p99_us", "us"},
	{"op_max_us", "us"},
	{"trace_overhead_share", "ratio"},
}

// partition is the set of layer shares that sum to 1.
var partition = []string{
	"admitd.share", "core.share", "dbf.share", "mckp.share", "fleet.share",
	"sched.share", "eventq.share", "trace.share", "chaos.share", "exp.share",
	"http.share", "json.share", "perfbench.share", "gc.cpu_share", "other.share",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured: counts, a correctness verdict,
// and the raw metric values by name.
type outcome struct {
	attempted, failed int64
	// mismatches holds the first correctness violations found; any
	// entry fails the run.
	mismatches []string
	values     map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// mismatch records a correctness violation; only the first few are
// kept for the report.
func (o *outcome) mismatch(format string, args ...any) {
	if len(o.mismatches) < 8 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	} else if len(o.mismatches) == 8 {
		o.mismatches = append(o.mismatches, "... further mismatches elided")
	}
}

// toResult renders the outcome for the given metric table; a metric
// the workload left unset is a benchmark bug, not a zero.
func (o *outcome) toResult(defs []metricDef) (*result, error) {
	r := &result{
		Correct:   len(o.mismatches) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// Latency histogram geometry: histPerOctave buckets per doubling
// (each about 0.54 % wide) from histLoUS up over histOctaves
// doublings, so 1/16 µs to about 4.5 hours.
const (
	histLoUS      = 1.0 / 16
	histPerOctave = 128
	histOctaves   = 28
	histBuckets   = histPerOctave * histOctaves
)

// hist is a fixed-size log-bucketed histogram of latencies in µs. A
// closed loop records every request in one, so the harness's memory
// does not grow with the number of requests a run measures: faster
// code runs more passes, and peak_rss_mb must not read that as a
// regression.
type hist struct {
	counts   [histBuckets]uint64
	n        uint64
	sum, max float64
}

func (h *hist) add(us float64) {
	i := 0
	if us > histLoUS {
		i = min(int(math.Log2(us/histLoUS)*histPerOctave), histBuckets-1)
	}
	h.counts[i]++
	h.n++
	h.sum += us
	h.max = max(h.max, us)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// quantile returns the p-th percentile (0..100) of the recorded
// latencies: the bucket holding the sample of rank p/100·(n−1), and
// within it the geometric position of that rank among the bucket's
// samples. It is within one bucket width of the exact figure; p = 100
// is the exact maximum.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p >= 100 {
		return h.max
	}
	rank := p / 100 * float64(h.n-1)
	var below uint64
	for i, c := range h.counts {
		if c == 0 || float64(below+c) <= rank {
			below += c
			continue
		}
		f := (rank - float64(below) + 0.5) / float64(c)
		return min(histLoUS*math.Exp2((float64(i)+f)/histPerOctave), h.max)
	}
	return h.max
}

// windows turns a client's latency sequence (µs, in issue order) into
// per-window figures, one set for each window of w consecutive
// requests; an incomplete last window is dropped. Each window gives
// its rate in requests per second and its own p50 and p90 latency.
// Their medians are the benchmark's throughput and latency: a rare
// request that takes hundreds of milliseconds (the admission tail), or
// a burst in which the host takes the CPU away, moves a few windows,
// not the whole run, so the figures are comparable across seeds and
// runs while the tail itself is reported by the traced run's p99. It
// keeps three numbers per window and one window of samples.
type windows struct {
	w, n              int
	sum               float64
	buf               []float64
	rates, p50s, p90s []float64
}

func (win *windows) add(us float64) {
	win.sum += us
	win.n++
	win.buf = append(win.buf, us)
	if win.n == win.w {
		win.rates = append(win.rates, float64(win.w)*1e6/win.sum)
		win.p50s = append(win.p50s, stats.Percentile(win.buf, 50))
		win.p90s = append(win.p90s, stats.Percentile(win.buf, 90))
		win.n, win.sum, win.buf = 0, 0, win.buf[:0]
	}
}

// medians returns the median window's rate, p50 and p90.
func (win *windows) medians() (rate, p50, p90 float64) {
	return stats.Percentile(win.rates, 50), stats.Percentile(win.p50s, 50), stats.Percentile(win.p90s, 50)
}

// merge appends o's complete windows to win's.
func (win *windows) merge(o *windows) {
	win.rates = append(win.rates, o.rates...)
	win.p50s = append(win.p50s, o.p50s...)
	win.p90s = append(win.p90s, o.p90s...)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(data, n=4) computes them (the
// default "exclusive" method), so the steadiness report reads exactly
// as the acceptance check that uses Python does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process
// from /proc; pid "self" names the benchmark itself.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("perfbench: reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("perfbench: parsing %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("perfbench: no VmHWM line in /proc/" + pid + "/status")
}
