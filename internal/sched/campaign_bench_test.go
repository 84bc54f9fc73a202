package sched

// Campaign-cell benchmarks (BENCH_9): one cell = simulate a fleet and
// verify its schedule. The baseline path materializes the trace and
// runs the O(segments × subs) Validate; the campaign path streams the
// trace through the one-pass checker with the per-job log discarded.
// Test100kUnderMemoryCeiling is the fixed-memory claim: a 100k-task
// simulation streaming to the on-disk binary sink must not grow the
// heap by anything O(horizon).

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/trace"
)

// benchCellHorizon keeps the baseline's quadratic Validate benchable
// at 10k tasks; both paths use it so the comparison stays apples to
// apples.
const benchCellHorizon = 200 // ms

// benchBaselineCell is the naive campaign cell: in-memory trace,
// materialized whole-trace validation.
func benchBaselineCell(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := fleetConfig(n, 42)
		cfg.Horizon = rtime.FromMillis(benchCellHorizon)
		cfg.RecordTrace = true
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Trace.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamingCell is the campaign cell as exp.RunCampaign runs it:
// job log discarded, trace verified one-pass as it streams.
func benchStreamingCell(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := fleetConfig(n, 42)
		cfg.Horizon = rtime.FromMillis(benchCellHorizon)
		cfg.DiscardJobResults = true
		cfg.TraceSink = trace.NewStreamChecker()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignCellBaseline1k(b *testing.B)  { benchBaselineCell(b, 1_000) }
func BenchmarkCampaignCellBaseline10k(b *testing.B) { benchBaselineCell(b, 10_000) }

func BenchmarkCampaignCellStreaming1k(b *testing.B)  { benchStreamingCell(b, 1_000) }
func BenchmarkCampaignCellStreaming10k(b *testing.B) { benchStreamingCell(b, 10_000) }

// BenchmarkCampaignCellDisk100k is the fleet endpoint: at 100k tasks
// the trace streams to the on-disk binary sink (the one-pass checker's
// live-set scan is meant for cell-sized systems; a synchronous 100k
// release keeps ~n subs live, see DESIGN.md §5.8), and verification
// happens on replay of the recorded file.
func BenchmarkCampaignCellDisk100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := fleetConfig(100_000, 42)
		cfg.Horizon = rtime.FromMillis(benchCellHorizon)
		cfg.DiscardJobResults = true
		cfg.TraceSink = trace.NewBinarySink(io.Discard)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Test100kUnderMemoryCeiling runs a 100k-task SplitEDF simulation with
// the trace streaming to an on-disk binary sink and asserts the heap
// grew by less than a fixed ceiling — the segment stream lives on
// disk, so memory stays proportional to the task count, not to
// horizon × rate. The pre-PR in-memory recorder allocates the full
// segment/sub log (~56 B a segment before growth slack), which at this
// scale dwarfs the ceiling.
func Test100kUnderMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-sized simulation")
	}
	cfg := fleetConfig(100_000, 42)
	cfg.DiscardJobResults = true

	f, err := os.Create(filepath.Join(t.TempDir(), "trace.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	sink := trace.NewBinarySink(w)
	cfg.TraceSink = sink

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Measure the heap *retained* with the result still live: a
	// materialized trace would keep its full segment/sub log reachable
	// here (~1.6M segments, >100 MiB), while the streaming run retains
	// only the task set and per-task aggregates. Collecting first
	// keeps the number deterministic — un-collected transient garbage
	// varies run to run.
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const ceiling = 128 << 20
	if growth > ceiling {
		t.Fatalf("100k-task run retains %d MiB of heap (ceiling %d MiB)",
			growth>>20, int64(ceiling)>>20)
	}
	opens, segs, closes := sink.Counts()
	if segs == 0 || opens == 0 || closes != opens {
		t.Fatalf("sink saw opens=%d segs=%d closes=%d", opens, segs, closes)
	}
	t.Logf("retained heap %d MiB for %d segments on disk (%d MiB ceiling)",
		growth>>20, segs, int64(ceiling)>>20)
	runtime.KeepAlive(res)
}
