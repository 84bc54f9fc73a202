// Command perfbench is the repository benchmark. It builds nothing
// itself (perfbench/run.sh builds it and the admitd server), imports
// the layers' public APIs, and times calls into them from outside.
//
// One run measures one workload:
//
//	perfbench -root DIR -admitd BIN --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result: a JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// A run header (commit, CPU, GOMAXPROCS, Go version, seed) precedes it
// on a line of its own, and a human-readable summary goes to standard
// error. See README.md.
//
// With --steady N the command instead runs every workload (or the one
// named) with N seeds and reports each end-to-end metric's median and
// quartiles, flagging spreads beyond the bounds in BENCHMARK.json.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration // length of the timed phase
	trace   bool
	admitd  string // admitd binary (admit-http)
}

// workload is one benchmark workload; BENCHMARK.json says why each
// exists.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig) (*outcome, error)
}

// sizes fixes every workload's input size. The full sizes are tuned
// for a 2-vCPU host: long runs of many short operations, so a run
// takes a median over many samples.
type sizes struct {
	churn churnSize
	http  httpSize
	c10k  campaignSize
	fleet campaignSize
}

var fullSizes = sizes{
	churn: churnSize{ops: 3000, maxLive: 8, warm: 300, window: 256, setups: 5},
	http:  httpSize{ops: 1500, maxLive: 8, warm: 200, reads: 2, window: 128, setups: 5},
	c10k:  campaignSize{tasks: 10000, sets: 1, warm: 1, setups: 5},
	fleet: campaignSize{fleet: true, tasks: 32, sets: 20, warm: 30, setups: 5},
}

// warmSeed seeds every workload's warm-up inputs. It is the same for
// every --seed, so the set-up's cost does not depend on whether the
// seed's log holds a slow admission or its grid a slow cell.
const warmSeed uint64 = 0x3a7e

func workloads(sz sizes) []workload {
	return []workload{
		{"admit-churn", func(ctx context.Context, rc runConfig) (*outcome, error) { return runChurn(rc, sz.churn) }},
		{"admit-http", func(ctx context.Context, rc runConfig) (*outcome, error) { return runHTTP(ctx, rc, sz.http) }},
		{"campaign-10k", func(ctx context.Context, rc runConfig) (*outcome, error) { return runCampaign(ctx, rc, sz.c10k) }},
		{"campaign-fleet", func(ctx context.Context, rc runConfig) (*outcome, error) { return runCampaign(ctx, rc, sz.fleet) }},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root     = fs.String("root", ".", "repository root (holds BENCHMARK.json)")
		admitd   = fs.String("admitd", "", "admitd binary for the admit-http workload")
		name     = fs.String("workload", "", "workload to run")
		seed     = fs.Uint64("seed", 1, "input seed")
		seconds  = fs.Int("seconds", 10, "length of the timed phase in seconds")
		traceOn  = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady   = fs.Int("steady", 0, "steadiness report: run each workload with this many seeds")
		commitID = fs.String("commit", "", "commit of the checkout, if known")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		return steadyReport(*root, *admitd, *name, *seed, *steady, *seconds, stdout, stderr)
	}
	var w *workload
	for _, cand := range workloads(fullSizes) {
		if cand.name == *name {
			w = &cand
		}
	}
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if w.name == "admit-http" && *admitd == "" {
		fmt.Fprintln(stderr, "perfbench: admit-http needs -admitd (use perfbench/run.sh)")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hdr := header(*root, *commitID, *seed)
	hb, _ := json.Marshal(hdr) // a map of strings always encodes
	fmt.Fprintf(stdout, "# header %s\n", hb)

	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceOn == 1, admitd: *admitd}
	res, err := measure(ctx, *w, rc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and renders its result.
func measure(ctx context.Context, w workload, rc runConfig) (*result, error) {
	o, err := w.run(ctx, rc)
	if err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", w.name, err)
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("perfbench: %s attempted no operation", w.name)
	}
	o.values["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
	for _, m := range o.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: %s: MISMATCH %s\n", w.name, m)
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	res, err := o.toResult(defs)
	if err != nil {
		return nil, err
	}
	summarize(os.Stderr, w.name, rc, res, defs)
	return res, nil
}

// summarize prints the result as an aligned table.
func summarize(w io.Writer, name string, rc runConfig, r *result, defs []metricDef) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  correct %v  attempted %d  failed %d\n",
		name, rc.seed, rc.trace, r.Correct, r.Attempted, r.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	if rc.trace {
		var sum float64
		for _, p := range partition {
			sum += r.Metrics[p].Value
		}
		fmt.Fprintf(w, "  partition shares sum to %.6f\n", sum)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads(fullSizes) {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// header records what the numbers were measured on, so results from
// different hosts or trees are never compared silently.
func header(root, commit string, seed uint64) map[string]string {
	if commit == "" {
		commit = "unknown"
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if m := firstLine(data, "model name"); m != "" {
			cpu = m
		}
	}
	return map[string]string{
		"commit":     commit,
		"source":     sourceDigest(root),
		"cpu":        cpu,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"seed":       fmt.Sprint(seed),
	}
}

// sourceDigest hashes every Go source and go.mod file under root (the
// build directory and dot-directories excluded). It identifies the
// measured code even where the checkout carries no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// firstLine returns the value after the colon of the first line that
// starts with prefix, trimmed, or "".
func firstLine(data []byte, prefix string) string {
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(prefix)) {
			if i := bytes.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(string(line[i+1:]))
			}
		}
	}
	return ""
}
