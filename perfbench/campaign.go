package main

// The campaign-* workloads drive exp.RunCampaign, the offline sweep
// path, one cell per call so every cell is its own timed operation.
// campaign-10k walks the single-server grid (3 scenarios × 3 fault
// scales) with 10 000-task cells; campaign-fleet walks the five fleet
// scenarios × 3 fault scales with cells of a few dozen tasks. Every
// cell must finish with no deadline miss (I1) and no StreamChecker
// error, and every pass must reproduce the first pass's cells exactly.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"rtoffload/internal/exp"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
)

// campaignSize parameterizes a campaign workload.
type campaignSize struct {
	fleet bool
	tasks int // tasks per cell
	// sets is the number of task sets per grid point in one pass.
	sets int
	// warm is the number of cells of the warm-up grid a setup runs.
	warm, setups int
}

// campaignSalt separates the benchmark's cell seeds from every other
// DeriveSeed consumer.
const campaignSalt uint64 = 0xbe4c

var faultScales = []float64{0, 0.5, 1}

// campaignCells lists one pass's single-cell campaign configs. Each
// cell draws its own system through a seed derived from the run seed
// and the cell index.
func campaignCells(seed uint64, sz campaignSize) []exp.CampaignConfig {
	var cells []exp.CampaignConfig
	add := func(cfg exp.CampaignConfig) {
		cfg.Seed = stats.DeriveSeed(seed, campaignSalt, uint64(len(cells)))
		cfg.TaskSets, cfg.Tasks, cfg.Parallel = 1, sz.tasks, 1
		cells = append(cells, cfg)
	}
	for set := 0; set < sz.sets; set++ {
		for _, f := range faultScales {
			if sz.fleet {
				for _, name := range exp.FleetScenarioNames() {
					add(exp.CampaignConfig{FleetScenarios: []string{name}, FaultScales: []float64{f}})
				}
				continue
			}
			for _, sc := range []server.Scenario{server.Busy, server.NotBusy, server.Idle} {
				add(exp.CampaignConfig{Scenarios: []server.Scenario{sc}, FaultScales: []float64{f}})
			}
		}
	}
	return cells
}

// runCell runs one cell and checks it: no error (the StreamChecker
// reports through it), a complete grid, no deadline miss.
func runCell(cfg exp.CampaignConfig) (exp.CellResult, time.Duration, error) {
	t0 := now()
	res, err := exp.RunCampaign(cfg)
	d := since(t0)
	if err != nil {
		return exp.CellResult{}, d, err
	}
	if !res.Complete() || len(res.Cells) != 1 {
		return exp.CellResult{}, d, fmt.Errorf("incomplete campaign: %d/%d cells", len(res.Cells), res.Total)
	}
	return res.Cells[0], d, nil
}

// checkCell applies the correctness gate to one finished cell. Every
// deadline-missing job is a failed op.
func checkCell(o *outcome, i int, c exp.CellResult, want *exp.CellResult) {
	o.failed += int64(c.Misses)
	switch {
	case c.Misses != 0:
		o.mismatch("cell %d (%s, fault %g): %d deadline misses", i, c.Scenario, c.Fault, c.Misses)
	case c.Jobs <= 0 || c.Finished <= 0:
		o.mismatch("cell %d (%s, fault %g): no jobs simulated", i, c.Scenario, c.Fault)
	case want != nil && c != *want:
		o.mismatch("cell %d (%s, fault %g): result differs from the first pass", i, c.Scenario, c.Fault)
	}
}

// cellWindowRates returns the jobs per second of each window of w
// consecutive cells; the benchmark's throughput is their median. A
// window is one whole grid (every scenario at every fault scale for
// one task set) and every pass holds whole grids, so each window
// covers the same mix.
func cellWindowRates(jobs, secs []float64, w int) []float64 {
	var out []float64
	for i := 0; i+w <= len(jobs); i += w {
		var j, t float64
		for k := i; k < i+w; k++ {
			j += jobs[k]
			t += secs[k]
		}
		out = append(out, j/t)
	}
	return out
}

// runCampaign is the campaign-10k and campaign-fleet workload.
func runCampaign(ctx context.Context, rc runConfig, sz campaignSize) (*outcome, error) {
	o := newOutcome()
	cells := campaignCells(rc.seed, sz)
	window := len(cells) / sz.sets
	warmCells := campaignCells(warmSeed, sz)
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		t0 := now()
		for i := 0; i < sz.warm && i < len(warmCells); i++ {
			c, _, err := runCell(warmCells[i])
			if err != nil {
				return nil, fmt.Errorf("perfbench: warm-up cell %d: %w", i, err)
			}
			checkCell(o, i, c, nil)
		}
		setups = append(setups, since(t0).Seconds())
	}
	runtime.GC()

	var (
		first              []exp.CellResult
		cellUS             []float64
		cellJobs, cellTime []float64 // untraced cells, in run order
		tracedJobsPerCell  []float64 // traced cells, in run order
		tracedTime         []float64
		timed              time.Duration
		jobs, tracedJobs   int64
		tracedCells        int64
		offloaded, tasks   int64
		finished           int64
	)
	prof := newProfiler(rc.trace)
	gc := gcMeter{}
	for pass := 0; timed < rc.seconds || pass < 2; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tracedPass := rc.trace && pass%2 == 1
		if tracedPass {
			prof.start()
		} else {
			gc.begin()
		}
		var passTime time.Duration
		var passJobs int64
		results := make([]exp.CellResult, len(cells))
		for i, cfg := range cells {
			c, d, err := runCell(cfg)
			if err != nil {
				// A cell error is a failed op; the run is not correct.
				o.attempted++
				o.failed++
				o.mismatch("cell %d: %v", i, err)
				continue
			}
			results[i] = c
			passTime += d
			passJobs += int64(c.Jobs)
			if tracedPass {
				tracedJobsPerCell = append(tracedJobsPerCell, float64(c.Jobs))
				tracedTime = append(tracedTime, d.Seconds())
			} else {
				cellUS = append(cellUS, float64(d.Nanoseconds())/1e3)
				cellJobs = append(cellJobs, float64(c.Jobs))
				cellTime = append(cellTime, d.Seconds())
			}
		}
		if tracedPass {
			prof.stop()
		} else {
			gc.end()
		}
		timed += passTime
		for i, c := range results {
			var want *exp.CellResult
			if first != nil {
				want = &first[i]
			}
			checkCell(o, i, c, want)
		}
		if first == nil {
			first = results
			for _, c := range first {
				offloaded += int64(c.Offloaded)
				tasks += int64(sz.tasks)
				finished += int64(c.Finished)
			}
		}
		if tracedPass {
			tracedJobs += passJobs
			tracedCells += int64(len(cells))
			continue
		}
		jobs += passJobs
	}
	o.attempted += jobs
	var firstJobs, benefit float64
	for _, c := range first {
		firstJobs += float64(c.Jobs)
		benefit += c.Benefit
	}
	rates := cellWindowRates(cellJobs, cellTime, window)
	if len(rates) == 0 {
		return nil, errors.New("perfbench: the timed phase completed no whole grid")
	}
	rate := stats.Percentile(rates, 50)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = stats.Percentile(setups, 50)
	o.values["ops_per_s"] = rate
	o.values["op_p50_us"] = stats.Percentile(cellUS, 50)
	o.values["op_p90_us"] = stats.Percentile(cellUS, 90)
	o.values["peak_rss_mb"] = rss
	o.values["accept_ratio"] = float64(finished) / firstJobs
	o.values["benefit"] = benefit / float64(len(first))
	if rc.trace {
		zeroLayers(o)
		o.values["p99_us"] = stats.Percentile(cellUS, 99)
		o.values["op_max_us"] = stats.Percentile(cellUS, 100)
		gc.record(o, jobs)
		traced := cellWindowRates(tracedJobsPerCell, tracedTime, window)
		if len(traced) == 0 {
			return nil, errors.New("perfbench: the traced passes completed no whole grid")
		}
		o.values["trace_overhead_share"] = 1 - stats.Percentile(traced, 50)/rate
		o.values["sched.offload_share"] = float64(offloaded) / float64(tasks)
		var decideCells int64
		if sz.fleet {
			decideCells = tracedCells
		}
		if err := prof.record(o, tracedJobs, decideCells); err != nil {
			return nil, err
		}
	}
	return o, nil
}
