package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("perfbench: BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// errNoResult reports a run whose output had no result line.
var errNoResult = errors.New("no result line")

// lastResult parses the result line a run printed last.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return nil, errNoResult
	}
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%w: %v", errNoResult, err)
	}
	return &r, nil
}

// steadyReport runs each workload with n consecutive seeds and prints
// every end-to-end metric's median, quartiles and spread (the
// interquartile distance as a share of the median). A spread above
// the metric's bound is flagged OVER, one above a third of it warn.
// It then reruns the first seed and requires accept_ratio, benefit and
// ok_share to repeat exactly. The exit code is 1 on any OVER, failed
// run or determinism mismatch.
func steadyReport(root, admitd, only string, base uint64, n, seconds int, stdout, stderr io.Writer) int {
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runOne := func(name string, seed uint64) (*result, error) {
		cmd := exec.Command(exe, "-root", root, "-admitd", admitd, "-workload", name,
			"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		runErr := cmd.Run()
		r, err := lastResult(out.Bytes())
		if runErr != nil || err != nil || !r.Correct {
			return r, fmt.Errorf("%s seed %d failed (%v, %v):\n%s", name, seed, runErr, err, errb.String())
		}
		return r, nil
	}
	code := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		var first *result
		for i := 0; i < n; i++ {
			r, err := runOne(w.Name, base+uint64(i))
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				code = 1
				continue
			}
			if first == nil {
				first = r
			}
			for k, m := range r.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(stderr, "%s seed %d:", w.Name, base+uint64(i))
			for _, m := range spec.EndToEnd {
				fmt.Fprintf(stderr, " %s=%.6g", m.Name, r.Metrics[m.Name].Value)
			}
			fmt.Fprintln(stderr)
		}
		fmt.Fprintf(stdout, "%s: %d seeds from %d, %d s each\n", w.Name, n, base, seconds)
		fmt.Fprintf(stdout, "  %-14s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			q1, q2, q3 := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			flag := ""
			switch {
			case spread > m.Bound:
				flag = "OVER"
				code = 1
			case spread > m.Bound/3:
				flag = "warn"
			}
			fmt.Fprintf(stdout, "  %-14s %14.6g %14.6g %14.6g %8.4f %6.3f %s\n", m.Name, q1, q2, q3, spread, m.Bound, flag)
		}
		if first == nil {
			continue
		}
		again, err := runOne(w.Name, base)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			code = 1
			continue
		}
		for _, k := range []string{"accept_ratio", "benefit", "ok_share"} {
			if a, b := first.Metrics[k].Value, again.Metrics[k].Value; a != b {
				fmt.Fprintf(stdout, "  DETERMINISM: %s seed %d gave %v then %v\n", k, base, a, b)
				code = 1
			}
		}
	}
	return code
}
