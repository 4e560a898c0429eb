package main

import (
	"fmt"
	"runtime"
	"time"

	"hotnoc"
	"hotnoc/internal/core"
	"hotnoc/internal/geom"
	"hotnoc/internal/thermal"
)

// probeLayers times direct calls into the layers below the sweep engine,
// on the run's own calibrated builds, after the timed phase so it cannot
// perturb it. Per configuration it takes a fresh System.Clone, builds a
// thermal.NewEvaluator, runs appmap's Engine.Decode of one block at the
// static placement, and executes each scheme's first migration with
// core.Migrator.Execute. On the first configuration it characterizes the
// X-Y Shift orbit and times System.Evaluate and EvaluateReactive on it.
func probeLayers(tr *tracer, builts []*hotnoc.Built, schemes []hotnoc.Scheme, out map[string]metric) error {
	pid := tr.begin(0, "probe")
	defer tr.end(pid, nil)
	timed := func(name string, fn func() error) (time.Duration, error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		tr.add(pid, name, start, end, nil)
		return end.Sub(start), err
	}

	var clones, evaluators, decodes, migrations []float64
	var decCycles, decFlits, decMallocs, decBytes, migCycles int64
	var decodeTime, migrateTime time.Duration
	for _, b := range builts {
		cfg := b.Spec.Name
		var sys *core.System
		d, err := timed("core.clone "+cfg, func() (err error) {
			sys, err = b.System.Clone()
			return err
		})
		if err != nil {
			return fmt.Errorf("probe %s: clone: %w", cfg, err)
		}
		clones = append(clones, ms(d))
		d, err = timed("thermal.evaluator "+cfg, func() error {
			_, err := thermal.NewEvaluator(sys.Therm)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe %s: evaluator: %w", cfg, err)
		}
		evaluators = append(evaluators, ms(d))

		net := sys.Engine.Net
		if err := sys.Engine.SetPlacement(sys.InitialPlace); err != nil {
			return fmt.Errorf("probe %s: %w", cfg, err)
		}
		net.ResetStats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		_, err = sys.Engine.Decode(sys.BlockSource(0))
		end := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("probe %s: decode: %w", cfg, err)
		}
		counts := map[string]int64{
			"cycles":  net.Stats.Cycles,
			"flits":   net.Stats.FlitsDelivered,
			"mallocs": int64(m1.Mallocs - m0.Mallocs),
			"bytes":   int64(m1.TotalAlloc - m0.TotalAlloc),
		}
		tr.add(pid, "appmap.decode "+cfg, start, end, counts)
		decodes = append(decodes, ms(end.Sub(start)))
		decodeTime += end.Sub(start)
		decCycles += counts["cycles"]
		decFlits += counts["flits"]
		decMallocs += counts["mallocs"]
		decBytes += counts["bytes"]

		for _, s := range schemes {
			perm := geom.FromTransform(sys.Grid, s.Step(0, sys.Grid))
			net.ResetStats()
			var st core.MigrationStats
			d, err := timed("core.migrate "+cfg+"/"+s.Name, func() (err error) {
				st, err = sys.Migrator.Execute(perm)
				return err
			})
			if err != nil {
				return fmt.Errorf("probe %s/%s: migrate: %w", cfg, s.Name, err)
			}
			migrations = append(migrations, ms(d))
			migrateTime += d
			migCycles += st.Cycles
		}
	}

	sys, err := builts[0].System.Clone()
	if err != nil {
		return fmt.Errorf("probe: clone: %w", err)
	}
	scheme := hotnoc.XYShift()
	var ch *hotnoc.Characterization
	if _, err := timed("core.characterize "+builts[0].Spec.Name+"/"+scheme.Name, func() (err error) {
		ch, err = sys.Characterize(scheme)
		return err
	}); err != nil {
		return fmt.Errorf("probe: characterize: %w", err)
	}
	// Each sweep task evaluates a fresh view of a cached characterization,
	// so every evaluation below starts from one too (and pays for the
	// static baseline cycle, as a task's first evaluation does).
	var evals []float64
	for range 15 {
		fresh, err := core.FromData(scheme, ch.Data())
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		d, err := timed("core.evaluate", func() error {
			_, err := sys.Evaluate(fresh, core.EvalConfig{})
			return err
		})
		if err != nil {
			return fmt.Errorf("probe: evaluate: %w", err)
		}
		evals = append(evals, ms(d))
	}
	var reactive []float64
	for range 3 {
		d, err := timed("core.evaluate_reactive", func() error {
			_, err := sys.EvaluateReactive(ch, hotnoc.ReactiveConfig{Scheme: scheme, TriggerC: 84})
			return err
		})
		if err != nil {
			return fmt.Errorf("probe: evaluate reactive: %w", err)
		}
		reactive = append(reactive, ms(d))
	}

	n := float64(len(builts))
	out["appmap.decode_ms"] = metric{mean(decodes), "ms"}
	out["appmap.mallocs_per_decode"] = metric{float64(decMallocs) / n, "count"}
	out["appmap.kb_per_decode"] = metric{float64(decBytes) / 1024 / n, "KiB"}
	out["noc.cycles_per_decode"] = metric{float64(decCycles) / n, "cycles"}
	out["noc.ns_per_cycle"] = metric{float64(decodeTime.Nanoseconds()) / float64(decCycles), "ns"}
	out["noc.flits_per_cycle"] = metric{float64(decFlits) / float64(decCycles), "flits/cycle"}
	out["core.migrate_ms"] = metric{mean(migrations), "ms"}
	out["core.migrate_ns_per_cycle"] = metric{float64(migrateTime.Nanoseconds()) / float64(migCycles), "ns"}
	out["core.clone_ms"] = metric{mean(clones), "ms"}
	out["thermal.evaluator_ms"] = metric{mean(evaluators), "ms"}
	out["core.evaluate_ms"] = metric{median(evals), "ms"}
	out["core.evaluate_reactive_ms"] = metric{median(reactive), "ms"}
	return nil
}
