package main

// The admit-* workloads drive admitd's churn path: eight tenants, each
// fed by its own admitd.Stream, against the core solver with the exact
// upgrade. The op log is generated once per run by a serial replay
// through a bare core.Admission per tenant (the shadow); every answer
// the service gives in a timed pass must equal the shadow's. Each
// setup generates and replays a short warm-up log of its own.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"runtime"
	"time"

	"rtoffload/internal/admitd"
	"rtoffload/internal/core"
	"rtoffload/internal/stats"
)

// admitOpts is the service configuration under test: the core-method
// solver with the warm-started exact upgrade.
var admitOpts = core.Options{Solver: core.SolverCore, ExactUpgrade: true}

const tenants = 8

func tenantName(t int) string { return fmt.Sprintf("tenant-%02d", t) }

// step is one churn operation of one tenant plus the answers the
// shadow replay expects for it. Expected answers are kept as 64-bit
// FNV-1a hashes, so the log adds little to the live heap the
// service's collector has to scan.
type step struct {
	op        admitd.Op
	committed bool
	// view is hashView of the decision the write must answer with
	// when committed.
	view uint64
	// Wire forms, filled only for the HTTP workload: the request path
	// and body, the hash of the write's response body when committed,
	// and the hash of a decision read issued after this write (readOK
	// false: the tenant has no decision yet, so the read answers 404).
	path, body []byte
	wire, read uint64
	readOK     bool
}

// opLog is a seeded churn log for all tenants with its expected
// outcomes.
type opLog struct {
	steps [][]step // [tenant][i]
	// writes and committed count the log's operations and its
	// committed ones; benefit is the mean TotalExpected over the
	// committed decisions.
	writes, committed int
	benefit           float64
}

// applyAdmission applies one op to a bare core.Admission.
func applyAdmission(adm *core.Admission, o admitd.Op) error {
	switch o.Kind {
	case admitd.OpAdmit:
		return adm.Add(o.Task)
	case admitd.OpUpdate:
		return adm.Update(o.Task)
	default:
		_, err := adm.Remove(o.ID)
		return err
	}
}

// applyService applies one op to the service.
func applyService(s *admitd.Service, name string, o admitd.Op) (*admitd.DecisionView, error) {
	switch o.Kind {
	case admitd.OpAdmit:
		return s.Admit(name, o.Task)
	case admitd.OpUpdate:
		return s.Update(name, o.Task)
	default:
		return s.Evict(name, o.ID)
	}
}

// genLog generates the seeded churn log by a serial shadow replay. A
// rejection must be an admission conflict (core.ErrInfeasible); any
// other error means the workload itself is broken.
func genLog(seed uint64, ops, maxLive int, wire bool) (*opLog, error) {
	lg := &opLog{steps: make([][]step, tenants)}
	var benefit float64
	for t := 0; t < tenants; t++ {
		name := tenantName(t)
		st := admitd.NewStream(stats.DeriveSeed(seed, uint64(t)+1), maxLive)
		adm := core.NewAdmission(admitOpts)
		var seq, last uint64
		lastOK := false
		lg.steps[t] = make([]step, ops)
		for i := 0; i < ops; i++ {
			o := st.Next()
			err := applyAdmission(adm, o)
			if err != nil && !errors.Is(err, core.ErrInfeasible) {
				return nil, fmt.Errorf("perfbench: %s op %d (%v): %w", name, i, o.Kind, err)
			}
			st.Commit(o, err == nil)
			s := step{op: o, committed: err == nil}
			lg.writes++
			var view *admitd.DecisionView
			if s.committed {
				seq++
				lg.committed++
				view = admitd.ViewOf(name, seq, adm.Decision(), adm.Len())
				s.view = hashView(view)
				benefit += view.TotalExpected
			}
			if wire {
				if err := s.encode(name, view); err != nil {
					return nil, err
				}
				if s.committed {
					last, lastOK = s.wire, true
				}
				s.read, s.readOK = last, lastOK
			}
			lg.steps[t][i] = s
		}
	}
	if lg.committed > 0 {
		lg.benefit = benefit / float64(lg.committed)
	}
	return lg, nil
}

// encode fills the step's request and the hash of the response body
// admitd sends for view (nil when the write is rejected).
func (s *step) encode(name string, view *admitd.DecisionView) error {
	base := "/v1/tenants/" + name + "/tasks"
	if s.op.Kind == admitd.OpAdmit {
		s.path = []byte(base)
	} else {
		s.path = []byte(fmt.Sprintf("%s/%d", base, s.op.ID))
	}
	if s.op.Task != nil {
		b, err := json.Marshal(s.op.Task)
		if err != nil {
			return fmt.Errorf("perfbench: encoding task: %w", err)
		}
		s.body = b
	}
	if view != nil {
		b, err := json.Marshal(view)
		if err != nil {
			return fmt.Errorf("perfbench: encoding view: %w", err)
		}
		// admitd's json.Encoder ends every body with a newline.
		s.wire = hashBytes(append(b, '\n'))
	}
	return nil
}

// liveAfter returns the task IDs tenant t holds after its first n
// steps, in admission order.
func (lg *opLog) liveAfter(t, n int) []int {
	var live []int
	for _, s := range lg.steps[t][:n] {
		if !s.committed {
			continue
		}
		switch s.op.Kind {
		case admitd.OpAdmit:
			live = append(live, s.op.ID)
		case admitd.OpEvict:
			for i, id := range live {
				if id == s.op.ID {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
	}
	return live
}

// viewHasher feeds a decision view's fields to a 64-bit FNV-1a hash.
type viewHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func (h *viewHasher) u64(x uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], x)
	h.h.Write(h.buf[:]) // a hash.Hash never returns an error
}

func (h *viewHasher) str(s string) {
	h.u64(uint64(len(s)))
	io.WriteString(h.h, s)
}

func (h *viewHasher) flag(b bool) {
	if b {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// hashView hashes every field of a decision view, floats by their
// bits, so equal hashes mean bit-identical views. The self-test pins
// the field counts: a field added to the view must be added here.
func hashView(v *admitd.DecisionView) uint64 {
	h := &viewHasher{h: fnv.New64a()}
	h.str(v.Tenant)
	h.u64(v.Seq)
	h.u64(uint64(v.Tasks))
	h.str(v.Solver)
	h.u64(math.Float64bits(v.TotalExpected))
	h.str(v.Theorem3)
	h.flag(v.ExactVerified)
	h.u64(uint64(v.Repaired))
	h.u64(uint64(v.Offloaded))
	h.u64(uint64(len(v.Choices)))
	for _, c := range v.Choices {
		h.u64(uint64(c.TaskID))
		h.flag(c.Offload)
		h.u64(uint64(c.Level))
		h.u64(uint64(c.Budget))
		h.u64(math.Float64bits(c.Expected))
		h.str(c.Server)
	}
	return h.h.Sum64()
}

// checkReply compares one service answer with the shadow's.
func checkReply(o *outcome, t, i int, s *step, v *admitd.DecisionView, err error) {
	o.attempted++
	switch {
	case err != nil && !errors.Is(err, core.ErrInfeasible):
		o.failed++
		o.mismatch("%s op %d: unexpected error %v", tenantName(t), i, err)
	case s.committed != (err == nil):
		o.failed++
		o.mismatch("%s op %d: service committed=%v, shadow committed=%v", tenantName(t), i, err == nil, s.committed)
	case s.committed && hashView(v) != s.view:
		o.failed++
		o.mismatch("%s op %d: view diverges from the shadow replay", tenantName(t), i)
	}
}

// churnPass replays the first steps ops of every tenant's log against
// a fresh service, one goroutine going round-robin over the tenants,
// checking every answer as it arrives. Latencies (µs) go to lat and,
// in issue order, to win.
func churnPass(lg *opLog, steps int, lat *hist, win *windows, o *outcome) {
	s := admitd.New(admitOpts)
	var names [tenants]string
	for t := range names {
		names[t] = tenantName(t)
	}
	for i := 0; i < steps; i++ {
		for t := 0; t < tenants; t++ {
			st := &lg.steps[t][i]
			t0 := now()
			v, err := applyService(s, names[t], st.op)
			us := usSince(t0)
			lat.add(us)
			win.add(us)
			checkReply(o, t, i, st, v, err)
		}
	}
}

// spans accumulates the traced pass's span durations, in µs.
type spans struct {
	ops, reads          int
	serviceUS, readUS   float64 // Service write calls, Service.Decision calls
	admissionUS         float64 // shadow core.Admission calls
	renderUS, viewBytes float64 // ViewOf + json.Marshal of the shadow view
	renders             int
	win                 windows // every Service call, in issue order
}

// oracleShadowStep applies op to the tenant's shadow admission, timing
// it, then renders and compares the shadow's view with the service's.
// The oracle prefix keeps its samples out of the layer shares.
func oracleShadowStep(sp *spans, o *outcome, adm *core.Admission, seq *uint64, name string, s *step, v *admitd.DecisionView, err error) {
	t0 := now()
	aerr := applyAdmission(adm, s.op)
	sp.admissionUS += usSince(t0)
	if (aerr == nil) != (err == nil) || (aerr == nil) != s.committed {
		o.mismatch("oracle: %s: service err=%v, shadow err=%v", name, err, aerr)
		return
	}
	if aerr != nil {
		return
	}
	*seq++
	oracleRender(sp, o, name, *seq, adm, v)
}

// oracleRender renders the shadow decision the way the HTTP handler
// does (ViewOf, then JSON), timing it, and compares it with got.
func oracleRender(sp *spans, o *outcome, name string, seq uint64, adm *core.Admission, got *admitd.DecisionView) {
	t0 := now()
	want := admitd.ViewOf(name, seq, adm.Decision(), adm.Len())
	b, err := json.Marshal(want)
	sp.renderUS += usSince(t0)
	sp.renders++
	sp.viewBytes += float64(len(b))
	if err != nil {
		o.mismatch("oracle: %s: encoding view: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		o.mismatch("oracle: %s seq %d: service view diverges from the shadow", name, seq)
	}
}

// tracedChurnPass is churnPass with spans: after every service call
// the same op goes to the tenant's shadow core.Admission and the
// shadow's view is rendered and compared. With reads > 0 each write
// is followed by that many Service.Decision calls, mirroring the HTTP
// workload's request mix in-process. Spans accumulate into sp,
// mismatches into o; it returns the time spent in service calls.
func tracedChurnPass(lg *opLog, reads int, sp *spans, o *outcome) time.Duration {
	s := admitd.New(admitOpts)
	ops := len(lg.steps[0])
	shadows := make([]*core.Admission, tenants)
	seqs := make([]uint64, tenants)
	for t := range shadows {
		shadows[t] = core.NewAdmission(admitOpts)
	}
	var busy time.Duration
	for i := 0; i < ops; i++ {
		for t := 0; t < tenants; t++ {
			name := tenantName(t)
			st := &lg.steps[t][i]
			t0 := now()
			v, err := applyService(s, name, st.op)
			d := since(t0)
			busy += d
			us := float64(d.Nanoseconds()) / 1e3
			sp.serviceUS += us
			sp.ops++
			sp.win.add(us)
			oracleShadowStep(sp, o, shadows[t], &seqs[t], name, st, v, err)
			for r := 0; r < reads; r++ {
				t0 := now()
				rv, rerr := s.Decision(name)
				d := since(t0)
				busy += d
				us := float64(d.Nanoseconds()) / 1e3
				sp.readUS += us
				sp.reads++
				sp.win.add(us)
				if rerr != nil {
					o.mismatch("oracle: %s: decision read: %v", name, rerr)
					continue
				}
				oracleRender(sp, o, name, seqs[t], shadows[t], rv)
			}
		}
	}
	return busy
}

// churnSize parameterizes the admit-churn workload.
type churnSize struct {
	// ops is the log length per tenant; warm the length of the
	// warm-up log a setup generates and replays; window the requests
	// per throughput window.
	ops, maxLive, warm, window, setups int
}

// runChurn is the admit-churn workload: an in-process admitd.Service,
// one client goroutine round-robin over eight tenants.
func runChurn(rc runConfig, sz churnSize) (*outcome, error) {
	o := newOutcome()
	// The seed's log is the run's input; building it is not set-up.
	lg, err := genLog(rc.seed, sz.ops, sz.maxLive, false)
	if err != nil {
		return nil, err
	}
	var (
		setups []float64
		prev   *opLog
	)
	for k := 0; k < sz.setups; k++ {
		t0 := now()
		wl, err := genLog(warmSeed, sz.warm, sz.maxLive, false)
		if err != nil {
			return nil, err
		}
		warm := newOutcome()
		churnPass(wl, sz.warm, &hist{}, &windows{w: sz.window}, warm)
		setups = append(setups, since(t0).Seconds())
		o.failed += warm.failed
		o.mismatches = append(o.mismatches, warm.mismatches...)
		if prev != nil && (wl.committed != prev.committed || wl.benefit != prev.benefit) {
			o.mismatch("setup %d generated a different warm-up log from the same seed", k)
		}
		prev = wl
	}
	runtime.GC()

	var (
		lat         hist
		win         = windows{w: sz.window}
		timed       time.Duration
		sp          = spans{win: windows{w: sz.window}}
		untracedOps int64
	)
	prof := newProfiler(rc.trace)
	gc := gcMeter{}
	for pass := 0; timed < rc.seconds || pass < 2; pass++ {
		if rc.trace && pass%2 == 1 {
			prof.start()
			timed += tracedChurnPass(lg, 0, &sp, o)
			prof.stop()
			continue
		}
		gc.begin()
		t0 := now()
		churnPass(lg, sz.ops, &lat, &win, o)
		timed += since(t0)
		gc.end()
		untracedOps += int64(sz.ops * tenants)
	}
	if len(win.rates) == 0 || (rc.trace && len(sp.win.rates) == 0) {
		return nil, errors.New("perfbench: the timed phase filled no throughput window")
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rate, p50, p90 := win.medians()
	o.values["setup_s"] = stats.Percentile(setups, 50)
	o.values["ops_per_s"] = rate
	o.values["op_p50_us"] = p50
	o.values["op_p90_us"] = p90
	o.values["peak_rss_mb"] = rss
	o.values["accept_ratio"] = float64(lg.committed) / float64(lg.writes)
	o.values["benefit"] = lg.benefit
	if rc.trace {
		zeroLayers(o)
		o.values["p99_us"] = lat.quantile(99)
		o.values["op_max_us"] = lat.quantile(100)
		gc.record(o, untracedOps)
		o.values["trace_overhead_share"] = 1 - stats.Percentile(sp.win.rates, 50)/rate
		if err := sp.record(o); err != nil {
			return nil, err
		}
		if err := prof.record(o, 0, 0); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// record writes the span-derived metrics into o.
func (sp *spans) record(o *outcome) error {
	if sp.ops == 0 {
		return errors.New("perfbench: traced run recorded no spans")
	}
	ops := float64(sp.ops)
	// admitd's own time per write: the service span minus the shadow
	// admission span of the same op.
	o.values["admitd.self_us_per_op"] = (sp.serviceUS - sp.admissionUS) / ops
	o.values["core.admission_us_per_op"] = sp.admissionUS / ops
	if sp.renders > 0 {
		o.values["admitd.render_us_per_op"] = sp.renderUS / float64(sp.renders)
		o.values["admitd.view_bytes_per_op"] = sp.viewBytes / float64(sp.renders)
	}
	return nil
}

// zeroLayers presets every per-layer metric to 0, the value for a
// layer the workload does not exercise.
func zeroLayers(o *outcome) {
	for _, d := range perLayer {
		o.values[d.name] = 0
	}
}
