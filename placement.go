package hotnoc

import (
	"context"
	"fmt"

	"hotnoc/internal/power"
	"hotnoc/internal/thermal"
)

// PlacementReport describes one configuration's thermally-aware static
// placement and its effect: the annealed objective, the
// logical-to-physical mapping, the per-block power map of the placed
// workload, and the steady-state temperatures it induces. The report is
// plain data — the placer CLI renders it, and the hotnocd daemon serves
// it as JSON on GET /v1/builds/{config} so a remote placer run shows the
// same numbers as a local one.
type PlacementReport struct {
	Config string `json:"config"`
	// Scale is the workload divisor the build used.
	Scale int `json:"scale"`
	// GridW and GridH are the mesh dimensions.
	GridW int `json:"grid_w"`
	GridH int `json:"grid_h"`
	// PeakC, CommHops, Cost and Accepted echo the simulated-annealing
	// outcome (place.Result).
	PeakC    float64 `json:"peak_c"`
	CommHops float64 `json:"comm_hops"`
	Cost     float64 `json:"cost"`
	Accepted int     `json:"accepted"`
	// Placement maps logical PE -> physical block index.
	Placement []int `json:"placement"`
	// PlacedPowerW is the per-block power map of one block decode at the
	// placed mapping; TotalPowerW is its sum.
	PlacedPowerW []float64 `json:"placed_power_w"`
	TotalPowerW  float64   `json:"total_power_w"`
	// SteadyTempsC is the steady-state temperature map of the placed
	// power profile.
	SteadyTempsC []float64 `json:"steady_temps_c"`
}

// Placement builds (or serves from the build cache) one configuration and
// reports its thermally-aware static placement: the annealed mapping, the
// placed per-block power map reconstructed by decoding one block, and the
// steady-state temperatures. The shared calibrated build is never
// mutated — the decode runs on a simulator borrowed from the build
// (core.System.Borrow) — so Placement is safe alongside concurrent
// sweeps on the same Lab.
func (l *Lab) Placement(ctx context.Context, config string) (*PlacementReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	built, err := l.Build(config)
	if err != nil {
		return nil, err
	}
	sys, err := built.System.Borrow()
	if err != nil {
		return nil, fmt.Errorf("hotnoc: config %s: clone: %w", config, err)
	}
	if err := sys.Engine.SetPlacement(sys.InitialPlace); err != nil {
		return nil, fmt.Errorf("hotnoc: config %s: %w", config, err)
	}
	sys.Engine.Net.ResetStats()
	cycles, err := sys.Engine.DecodeTraffic()
	if err != nil {
		return nil, fmt.Errorf("hotnoc: config %s: decode: %w", config, err)
	}
	dur := float64(cycles) / sys.ClockHz
	placedPower := sys.Engine.Net.Act.PowerMap(sys.Energy, dur)
	built.System.Release(sys)

	ss, err := thermal.NewSteadySolver(built.System.Therm)
	if err != nil {
		return nil, fmt.Errorf("hotnoc: config %s: %w", config, err)
	}

	g := built.System.Grid
	return &PlacementReport{
		Config:       config,
		Scale:        l.scale,
		GridW:        g.W,
		GridH:        g.H,
		PeakC:        built.PlaceResult.PeakC,
		CommHops:     built.PlaceResult.CommHops,
		Cost:         built.PlaceResult.Cost,
		Accepted:     built.PlaceResult.Accepted,
		Placement:    append([]int(nil), built.System.InitialPlace...),
		PlacedPowerW: placedPower,
		TotalPowerW:  power.Total(placedPower),
		SteadyTempsC: ss.Solve(placedPower),
	}, nil
}
