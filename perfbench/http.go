package main

// The admit-http workload: the real cmd/admitd binary serving
// -solver core on loopback, two keep-alive connections each owning
// four of the eight tenants. Every churn write is followed by a fixed
// number of decision reads.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"rtoffload/internal/admitd"
	"rtoffload/internal/stats"
)

// adminServer is one running admitd process.
type adminServer struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("perfbench: picking a port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("perfbench: picking a port: %w", err)
	}
	return addr, nil
}

// startServer launches admitd and waits until /healthz answers.
func startServer(ctx context.Context, bin string) (*adminServer, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-solver", "core")
	// The server runs on one P and the client on the other (see
	// runHTTP). With two Ps the server oversubscribes the two vCPUs
	// this benchmark is sized for: four same-seed runs read
	// 8.3k–9.3k requests/s against 11.8k–12.1k with one.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The server dies with the benchmark even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("perfbench: starting admitd: %w", err)
	}
	s := &adminServer{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	client := newClient()
	defer client.CloseIdleConnections()
	deadline := now().Add(20 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("perfbench: admitd exited before it was ready: %v", err)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-after(2 * time.Millisecond):
		}
		if now().After(deadline) {
			s.stop()
			return nil, errors.New("perfbench: admitd did not become ready")
		}
	}
}

// peakRSS reads the server's peak resident set size.
func (s *adminServer) peakRSS() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// stop kills the server and waits until it has exited.
func (s *adminServer) stop() {
	_ = s.cmd.Process.Kill() // an already-exited process is fine
	<-s.done
}

// newClient returns a client holding at most one keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// httpStats is what one connection measured in one HTTP pass.
type httpStats struct {
	write, read      hist
	win              windows // every request's latency in issue order
	requests, failed int64
	mismatches       []string
}

func (h *httpStats) mismatch(format string, args ...any) {
	if len(h.mismatches) < 4 {
		h.mismatches = append(h.mismatches, fmt.Sprintf(format, args...))
	}
}

// do sends one request and reads the whole answer into buf.
func do(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// methodOf maps a churn op to its HTTP method.
func methodOf(k admitd.OpKind) string {
	switch k {
	case admitd.OpAdmit:
		return http.MethodPost
	case admitd.OpUpdate:
		return http.MethodPut
	default:
		return http.MethodDelete
	}
}

// httpPass replays the first steps ops of every tenant's log over
// HTTP: client g owns the tenants t with t%len(clients) == g. The
// server must hold no tenant when the pass starts. Each connection's
// throughput windows hold window requests.
func httpPass(s *adminServer, clients []*http.Client, lg *opLog, steps, reads, window int) []*httpStats {
	out := make([]*httpStats, len(clients))
	var wg sync.WaitGroup
	for g := range clients {
		out[g] = &httpStats{win: windows{w: window}}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, hs := clients[g], out[g]
			var buf bytes.Buffer
			for i := 0; i < steps; i++ {
				for t := g; t < tenants; t += len(clients) {
					st := &lg.steps[t][i]
					wantCode := http.StatusOK
					switch {
					case !st.committed:
						wantCode = http.StatusConflict
					case st.op.Kind == admitd.OpAdmit:
						wantCode = http.StatusCreated
					}
					t0 := now()
					code, err := do(c, methodOf(st.op.Kind), s.base+string(st.path), st.body, &buf)
					us := usSince(t0)
					hs.write.add(us)
					hs.win.add(us)
					hs.check(tenantName(t), i, "write", code, err, wantCode, st.committed, st.wire, buf.Bytes())
					readURL := s.base + "/v1/tenants/" + tenantName(t) + "/decision"
					for r := 0; r < reads; r++ {
						wantCode := http.StatusOK
						if !st.readOK {
							wantCode = http.StatusNotFound
						}
						t0 := now()
						code, err := do(c, http.MethodGet, readURL, nil, &buf)
						us := usSince(t0)
						hs.read.add(us)
						hs.win.add(us)
						hs.check(tenantName(t), i, "read", code, err, wantCode, st.readOK, st.read, buf.Bytes())
					}
				}
			}
		}(g)
	}
	wg.Wait()
	return out
}

// check classifies one answer: transport errors, 5xx and unexpected
// statuses are failures, and so is a body whose hash differs from the
// shadow's (checked when hasBody). A 409 is an expected answer, not a
// failure.
func (h *httpStats) check(name string, i int, kind string, code int, err error, wantCode int, hasBody bool, want uint64, got []byte) {
	h.requests++
	switch {
	case err != nil:
		h.failed++
		h.mismatch("%s op %d %s: %v", name, i, kind, err)
	case code != wantCode:
		h.failed++
		h.mismatch("%s op %d %s: status %d, want %d", name, i, kind, code, wantCode)
	case hasBody && hashBytes(got) != want:
		h.failed++
		h.mismatch("%s op %d %s: body diverges from the shadow replay", name, i, kind)
	}
}

// cleanUp evicts every task the first steps ops of the log left
// admitted, which dissolves every tenant, and checks that the server
// is empty again.
func cleanUp(s *adminServer, c *http.Client, lg *opLog, steps int) error {
	var buf bytes.Buffer
	for t := range lg.steps {
		for _, id := range lg.liveAfter(t, steps) {
			url := fmt.Sprintf("%s/v1/tenants/%s/tasks/%d", s.base, tenantName(t), id)
			code, err := do(c, http.MethodDelete, url, nil, &buf)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("perfbench: clean-up evict %s/%d: status %d, %v", tenantName(t), id, code, err)
			}
		}
	}
	code, err := do(c, http.MethodGet, s.base+"/v1/tenants", nil, &buf)
	if err != nil || code != http.StatusOK || buf.String() != "{\"tenants\":[]}\n" {
		return fmt.Errorf("perfbench: server not empty after clean-up: status %d, %q, %v", code, buf.String(), err)
	}
	return nil
}

// httpSize parameterizes the admit-http workload.
type httpSize struct {
	// ops is the log length per tenant; warm the length of the
	// warm-up log a setup generates and replays; reads the decision
	// reads after each write; window the requests per throughput
	// window of one connection.
	ops, maxLive, warm, reads, window, setups int
}

// runHTTP is the admit-http workload.
func runHTTP(ctx context.Context, rc runConfig, sz httpSize) (o *outcome, err error) {
	o = newOutcome()
	// The client runs on one P: with two, the client and the server
	// oversubscribe the two vCPUs this benchmark is sized for, and
	// same-seed runs read 6.6k–7.9k requests/s instead of 7.7k–8.2k.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clients := []*http.Client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	// The seed's log is the run's input; building it is not set-up.
	lg, err := genLog(rc.seed, sz.ops, sz.maxLive, true)
	if err != nil {
		return nil, err
	}
	var (
		srv    *adminServer
		prev   *opLog
		setups []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for k := 0; k < sz.setups; k++ {
		if srv != nil {
			for _, c := range clients {
				c.CloseIdleConnections()
			}
			srv.stop()
			srv = nil
		}
		t0 := now()
		srv, err = startServer(ctx, rc.admitd)
		if err != nil {
			return nil, err
		}
		wl, err := genLog(warmSeed, sz.warm, sz.maxLive, true)
		if err != nil {
			return nil, err
		}
		warm := httpPass(srv, clients, wl, sz.warm, sz.reads, sz.window)
		if err := cleanUp(srv, clients[0], wl, sz.warm); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0).Seconds())
		for _, hs := range warm {
			o.failed += hs.failed
			for _, m := range hs.mismatches {
				o.mismatch("warm-up: %s", m)
			}
		}
		if prev != nil && (wl.committed != prev.committed || wl.benefit != prev.benefit) {
			o.mismatch("setup %d generated a different warm-up log from the same seed", k)
		}
		prev = wl
	}

	var (
		write, read, traced hist
		win                 windows
		tracedRates         []float64
		timed               time.Duration
		sp                  = spans{win: windows{w: sz.window}}
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
		t0 := now()
		conns := httpPass(srv, clients, lg, sz.ops, sz.reads, sz.window)
		d := since(t0)
		if tracedPass {
			prof.stop()
		} else {
			gc.end()
		}
		timed += d
		var n int64
		for _, hs := range conns {
			n += hs.requests
			o.failed += hs.failed
			for _, m := range hs.mismatches {
				o.mismatch("%s", m)
			}
		}
		if err := cleanUp(srv, clients[0], lg, sz.ops); err != nil {
			return nil, err
		}
		if tracedPass {
			for _, hs := range conns {
				tracedRates = append(tracedRates, hs.win.rates...)
				traced.merge(&hs.write)
				traced.merge(&hs.read)
			}
			// The in-process shadow of the same request mix gives the
			// service-side spans the HTTP round trips are split by.
			tracedChurnPass(lg, sz.reads, &sp, o)
			continue
		}
		o.attempted += n
		for _, hs := range conns {
			win.merge(&hs.win)
			write.merge(&hs.write)
			read.merge(&hs.read)
		}
	}
	if len(win.rates) == 0 || (rc.trace && len(tracedRates) == 0) {
		return nil, errors.New("perfbench: the timed phase filled no throughput window")
	}
	var lat hist
	lat.merge(&write)
	lat.merge(&read)
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	rate, p50, p90 := win.medians()
	o.values["setup_s"] = stats.Percentile(setups, 50)
	// Both connections answer concurrently: the service's rate is
	// the per-connection window rate times the connections.
	o.values["ops_per_s"] = float64(len(clients)) * rate
	o.values["op_p50_us"] = p50
	o.values["op_p90_us"] = p90
	o.values["peak_rss_mb"] = rss
	o.values["accept_ratio"] = float64(lg.committed) / float64(lg.writes)
	o.values["benefit"] = lg.benefit
	if rc.trace {
		zeroLayers(o)
		if int64(lat.n) != o.attempted {
			o.mismatch("read/write latency split covers %d of %d requests", lat.n, o.attempted)
		}
		p99 := lat.quantile(99)
		o.values["p99_us"] = p99
		o.values["op_max_us"] = lat.quantile(100)
		o.values["admitd.http.p99_us"] = p99
		o.values["admitd.http.write_p50_us"] = write.quantile(50)
		o.values["admitd.http.read_p50_us"] = read.quantile(50)
		gc.record(o, o.attempted)
		o.values["trace_overhead_share"] = 1 - stats.Percentile(tracedRates, 50)/rate
		if err := sp.record(o); err != nil {
			return nil, err
		}
		// HTTP's own time per request: the traced round trips' mean
		// minus the mean in-process service call of the same mix.
		o.values["admitd.http.self_us_per_op"] = traced.sum/float64(traced.n) - (sp.serviceUS+sp.readUS)/float64(sp.ops+sp.reads)
		if err := prof.record(o, 0, 0); err != nil {
			return nil, err
		}
	}
	return o, nil
}
