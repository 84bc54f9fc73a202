package sched

// Engine-level coverage for the trace sink path: it must reproduce
// the in-memory recorder exactly while satisfying the streaming
// checkers live. fleetConfig is the fleet-shaped system the campaign
// benchmarks share.

import (
	"errors"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// fleetConfig draws an n-task system in the fleet-campaign shape:
// light per-task load, a mix of local and offloaded tasks against a
// deterministic server, short horizon relative to the period spread.
func fleetConfig(n int, seed uint64) Config {
	rng := stats.NewRNG(seed)
	shares := rng.UUniFast(n, 0.6)
	asgs := make([]Assignment, 0, n)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(20, 400))
		c := rtime.Duration(shares[i] * float64(period))
		if c < 2 {
			c = 2
		}
		tk := &task.Task{ID: i, Period: period, Deadline: period, LocalWCET: c, LocalBenefit: 1}
		if i%3 == 0 {
			tk.Setup = c/4 + 1
			tk.Compensation = c
			tk.PostProcess = c / 6
			tk.Levels = []task.Level{{
				Response: rtime.Duration(float64(period) * 0.4),
				Benefit:  2,
			}}
			asgs = append(asgs, Assignment{Task: tk, Offload: true})
		} else {
			asgs = append(asgs, Assignment{Task: tk})
		}
	}
	return Config{
		Assignments: asgs,
		Horizon:     rtime.FromMillis(2000),
		Policy:      SplitEDF,
		Server:      server.Fixed{Latency: rtime.FromMillis(8)},
	}
}

// TestTraceSinkMatchesRecordTrace streams the trace into an external
// *trace.Trace sink and asserts it is bit-identical to the in-memory
// RecordTrace recorder.
func TestTraceSinkMatchesRecordTrace(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, m := range diffMisses {
			recCfg := genDiffConfig(seed, SplitEDF, m)
			want, err := Run(recCfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var streamed trace.Trace
			sinkCfg := genDiffConfig(seed, SplitEDF, m)
			sinkCfg.RecordTrace = false
			sinkCfg.TraceSink = &streamed
			got, err := Run(sinkCfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got.Trace != nil {
				t.Fatal("TraceSink run materialized a Result.Trace")
			}
			if d := describeTraceDiff(&streamed, want.Trace); d != "" {
				t.Fatalf("seed %d, %v: sink trace diverges: %s", seed, m, d)
			}
		}
	}
}

// TestEngineStreamSatisfiesChecker runs the engine with a live
// StreamChecker sink: the engine's event emission order must satisfy
// the Sink contract the one-pass checkers rely on, across seeds and
// miss policies.
func TestEngineStreamSatisfiesChecker(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for _, m := range diffMisses {
			cfg := genDiffConfig(seed, SplitEDF, m)
			cfg.RecordTrace = false
			cfg.TraceSink = trace.NewStreamChecker()
			if _, err := Run(cfg); err != nil {
				t.Fatalf("seed %d, %v: live stream rejected: %v", seed, m, err)
			}
		}
	}
}

// TestDiscardJobResults checks the campaign-mode toggle: aggregates
// stay identical, only the per-job log disappears.
func TestDiscardJobResults(t *testing.T) {
	full, err := Run(genDiffConfig(3, SplitEDF, ContinueLate))
	if err != nil {
		t.Fatal(err)
	}
	cfg := genDiffConfig(3, SplitEDF, ContinueLate)
	cfg.DiscardJobResults = true
	lean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.Jobs) != 0 {
		t.Fatalf("DiscardJobResults kept %d job records", len(lean.Jobs))
	}
	if lean.Misses != full.Misses || lean.TotalBenefit != full.TotalBenefit ||
		lean.CPUBusy != full.CPUBusy || lean.Makespan != full.Makespan {
		t.Fatalf("aggregates diverge: %+v vs %+v", lean, full)
	}
	for id, w := range full.PerTask {
		g := lean.PerTask[id]
		if g == nil || g.Misses != w.Misses || g.Finished != w.Finished || g.BenefitSum != w.BenefitSum {
			t.Fatalf("task %d stats diverge: %+v vs %+v", id, g, w)
		}
	}
}

// failSink reports a deferred error from Finish, as an on-disk sink
// does when the underlying writer failed mid-run.
type failSink struct{ err error }

func (f *failSink) OpenSub(trace.SubID, rtime.Instant, rtime.Instant, rtime.Duration) {}
func (f *failSink) AppendSegment(trace.Segment)                                       {}
func (f *failSink) CloseSub(trace.SubRecord)                                          {}
func (f *failSink) Finish() error                                                     { return f.err }

// TestSinkFinishErrorSurfaces proves a sink's deferred failure aborts
// Run instead of vanishing.
func TestSinkFinishErrorSurfaces(t *testing.T) {
	sinkErr := errors.New("disk full")
	cfg := genDiffConfig(1, SplitEDF, ContinueLate)
	cfg.RecordTrace = false
	cfg.TraceSink = &failSink{err: sinkErr}
	if _, err := Run(cfg); !errors.Is(err, sinkErr) {
		t.Fatalf("Run error = %v, want the sink's %v", err, sinkErr)
	}
}

// TestRecordTraceWithSinkRejected pins the config validation.
func TestRecordTraceWithSinkRejected(t *testing.T) {
	cfg := genDiffConfig(1, SplitEDF, ContinueLate)
	cfg.TraceSink = &trace.Trace{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("RecordTrace + TraceSink accepted")
	}
}
