package exp

// Fleet campaign cells (DESIGN.md §5.9): the campaign's scenario axis
// becomes named multi-server stress shapes. Unlike single-server
// cells — whose assignments are constructed directly — a fleet cell
// admits its drawn system through the fleet-aware decision manager
// (core.Decide with Options.Fleet), so capacity pools, reliability
// discounts, and response scaling shape the routing, then simulates
// the routed system with one independently seeded fault injector per
// server.

import (
	"fmt"

	"rtoffload/internal/chaos"
	"rtoffload/internal/core"
	"rtoffload/internal/fleet"
	"rtoffload/internal/rtime"
	"rtoffload/internal/sched"
	"rtoffload/internal/server"
	"rtoffload/internal/stats"
	"rtoffload/internal/task"
	"rtoffload/internal/trace"
)

// FleetScenarioNames lists the fleet stress shapes, in table order:
//
//	uniform   three healthy servers (edge, mid, cloud), no caps
//	hot       the attractive edge server has a tight capacity pool,
//	          coupled to mid through a shared radio group
//	skew      strongly asymmetric response scaling: a fast edge next
//	          to a cloud that doubles every budget
//	degrade   uniform fleet, but the edge's channel runs a hostile
//	          Gilbert–Elliott overlay on top of the fault axis
//	failover  uniform fleet whose edge server stops responding at
//	          mid-horizon (server.FailAfter)
func FleetScenarioNames() []string {
	return []string{"uniform", "hot", "skew", "degrade", "failover"}
}

// fleetFor resolves a scenario name to its fleet shape. The degrade
// and failover scenarios share the uniform shape — their stress lives
// in the cell's server construction, not the admission-side model.
func fleetFor(name string) (fleet.Fleet, error) {
	edge := fleet.Server{ID: "edge"}
	mid := fleet.Server{ID: "mid", Extra: rtime.FromMillis(1)}
	cloud := fleet.Server{ID: "cloud", ScaleNum: 3, ScaleDen: 2,
		Extra: rtime.FromMillis(2), Reliability: 0.9, WeightNum: 1, WeightDen: 2}
	f := fleet.Fleet{}
	switch name {
	case "uniform", "degrade", "failover":
	case "hot":
		edge.CapNum, edge.CapDen = 1, 4
		edge.Group, mid.Group = "radio", "radio"
		f.Groups = []fleet.Group{{ID: "radio", CapNum: 1, CapDen: 2}}
	case "skew":
		edge.ScaleNum, edge.ScaleDen = 1, 2
		cloud.ScaleNum, cloud.ScaleDen = 2, 1
	default:
		return fleet.Fleet{}, fmt.Errorf("exp: unknown fleet scenario %q", name)
	}
	f.Servers = []fleet.Server{edge, mid, cloud}
	return f, nil
}

// runFleetCell simulates one fleet cell in bounded memory, mirroring
// runCell: job log discarded, trace streamed through the one-pass
// checker. Every RNG stream derives from (Seed, ts, si, fi), never
// from execution order, so cells are order- and worker-independent.
func (c CampaignConfig) runFleetCell(cell int, base chaos.Config) (CellResult, error) {
	nf, ns := len(c.FaultScales), len(c.FleetScenarios)
	fi := cell % nf
	si := (cell / nf) % ns
	ts := cell / (nf * ns)
	name := c.FleetScenarios[si]
	fl, err := fleetFor(name)
	if err != nil {
		return CellResult{}, err
	}

	key := func(stream uint64) uint64 {
		return stats.DeriveSeed(c.Seed, streamCampaign,
			uint64(ts), uint64(si), uint64(fi), stream)
	}
	set := campaignFleetSet(stats.NewRNG(key(1)), c.Tasks)
	dec, err := core.Decide(set, core.Options{Solver: core.SolverDP, Fleet: fl})
	if err != nil {
		return CellResult{}, fmt.Errorf("exp: fleet cell %d (%s): %w", cell, name, err)
	}

	// One component and one fault injector per server: edge is idle,
	// mid lightly loaded, cloud busy; the chaos axis scales all three
	// identically, then the scenario applies its per-server twist.
	kinds := []server.Scenario{server.Idle, server.NotBusy, server.Busy}
	servers := make(map[string]server.Server, len(fl.Servers))
	for i, s := range fl.Servers {
		inner, err := server.NewScenario(stats.NewRNG(key(uint64(10+i))), kinds[i%len(kinds)])
		if err != nil {
			return CellResult{}, err
		}
		cfg := base.Scale(c.FaultScales[fi])
		if name == "degrade" && i == 0 {
			cfg.GE = chaos.GilbertElliott{
				PGoodBad: 0.6, PBadGood: 0.1, BadLoss: 0.9, BadDelayMax: c.Horizon / 8,
			}
		}
		inj, err := chaos.New(inner, cfg, stats.NewRNG(key(uint64(20+i))))
		if err != nil {
			return CellResult{}, err
		}
		srv := server.Server(inj)
		if name == "failover" && i == 0 {
			srv = server.FailAfter{Inner: inj, At: rtime.Instant(c.Horizon / 2)}
		}
		servers[s.ID] = srv
	}

	res, err := sched.Run(sched.Config{
		Assignments:       dec.Assignments(),
		Servers:           servers,
		Horizon:           c.Horizon,
		Policy:            sched.SplitEDF,
		DiscardJobResults: true,
		TraceSink:         trace.NewStreamChecker(),
	})
	if err != nil {
		return CellResult{}, fmt.Errorf("exp: fleet cell %d (%s): %w", cell, name, err)
	}
	out := CellResult{
		Cell:     cell,
		TaskSet:  ts,
		Scenario: name,
		Fault:    c.FaultScales[fi],
		Misses:   res.Misses,
		Benefit:  res.NormalizedBenefit(),
		CPUBusy:  int64(res.CPUBusy),
		Makespan: int64(res.Makespan),
	}
	for _, ch := range dec.Choices {
		if ch.Offload {
			out.Offloaded++
		}
	}
	for id := 0; id < c.Tasks; id++ {
		if st := res.PerTask[id]; st != nil {
			out.Jobs += st.Released
			out.Finished += st.Finished
		}
	}
	return out, nil
}

// campaignFleetSet draws the fleet twin of campaignSystem: light
// per-task load, every third task offloadable with two service
// levels, handed to the decision manager as a task set (the fleet
// expansion and routing happen inside core.Decide).
func campaignFleetSet(rng *stats.RNG, n int) task.Set {
	shares := rng.UUniFast(n, 0.6)
	set := make(task.Set, 0, n)
	for i := 0; i < n; i++ {
		period := rtime.FromMillis(rng.UniformInt(20, 400))
		cwc := rtime.Duration(shares[i] * float64(period))
		if cwc < 2 {
			cwc = 2
		}
		tk := &task.Task{ID: i, Period: period, Deadline: period, LocalWCET: cwc, LocalBenefit: 1}
		if i%3 == 0 {
			tk.Setup = cwc/4 + 1
			tk.Compensation = cwc
			tk.PostProcess = cwc / 6
			tk.Levels = []task.Level{
				{Response: rtime.Duration(float64(period) * 0.35), Benefit: 2},
				{Response: rtime.Duration(float64(period) * 0.6), Benefit: 2.5},
			}
		}
		set = append(set, tk)
	}
	return set
}
