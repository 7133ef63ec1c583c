package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"time"

	"heteroif/internal/experiments"
	"heteroif/internal/sweep"
)

// sweepIDs are the experiments sweep_tiny regenerates at smoke scale, per
// scale: two trace figures, one synthetic figure, and the two closed-loop
// sweeps. The test scale keeps the cheapest one of each open-loop kind.
var sweepIDs = [2][]string{
	std:  {"fig11", "fig12", "fig13", "fault", "collective"},
	tiny: {"fig12"},
}

// runSweep executes one repetition of sweep_tiny: every listed experiment
// through the public registry at Tiny scale, manifests written under dir.
// An operation is one sweep point. A non-nil rec selects the traced
// variant: the pool runs at Jobs=1 so that Progress deltas are per-point
// times.
func runSweep(sc scale, seed int64, jobs int, dir string, rec *recorder) *rep {
	r := newRep()
	// A repetition that gets nowhere (unwritable dir, unknown id) is still
	// one attempted and failed operation, never an empty success.
	defer func() {
		r.ops = max(r.ops, 1)
		if len(r.fails) > 0 && r.failedOps == 0 {
			r.failedOps = 1
		}
	}()
	traced := rec != nil
	if traced {
		jobs = 1
	}

	// ---- set-up: everything up to the first completed point ----
	// A sweep has no set-up phase an outsider can bracket: every point
	// builds its own system. What its user waits for before anything
	// comes back is the first point, so that is where set-up ends; work a
	// later change moves ahead of the points (shared warm-up, ROADMAP 5c)
	// lands in it.
	setupStart := time.Now()
	var firstPoint time.Time
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.fail("manifest dir: %v", err)
		return r
	}
	type entry struct {
		exp experiments.Experiment
		man *experiments.Manifest
	}
	var pointTimes []float64
	var lastElapsed time.Duration
	opts := experiments.Options{
		Tiny: true, Seed: seed, Jobs: jobs,
		// Called once per completed point, never concurrently.
		Progress: func(p sweep.Progress) {
			r.ops++
			if firstPoint.IsZero() {
				firstPoint = time.Now()
			}
			if p.Done == 1 {
				lastElapsed = 0
			}
			pointTimes = append(pointTimes, (p.Elapsed - lastElapsed).Seconds())
			lastElapsed = p.Elapsed
		},
	}
	var entries []entry
	for _, id := range sweepIDs[sc] {
		e, err := experiments.ByID(id)
		if err != nil {
			r.fail("%v", err)
			return r
		}
		o := opts
		entries = append(entries, entry{e, experiments.NewManifest(e, "", o)})
	}

	// ---- run ----
	var writeS float64
	var bytes int64
	dg := newDigest()
	var lats []float64 // mean latency of every measured point
	var thr, energy float64
	measured := 0
	for _, en := range entries {
		o := opts
		o.Manifest = en.man
		t := time.Now()
		err := en.exp.Run(o, io.Discard)
		end := time.Now()
		r.set("experiments."+en.exp.ID+"_s", end.Sub(t).Seconds())
		rec.add("experiments."+en.exp.ID, "run", 0, t, end)
		if err != nil {
			r.fail("%s: %v", en.exp.ID, err)
		}
		r.failedOps += en.man.FailedPoints
		en.man.WallClockMS = end.Sub(t).Milliseconds()

		t = time.Now()
		err = en.man.Write(dir)
		end = time.Now()
		writeS += end.Sub(t).Seconds()
		rec.add("experiments.manifest_write", "run", 0, t, end)
		if err != nil {
			r.fail("%s: manifest write: %v", en.exp.ID, err)
			continue
		}
		if fi, err := os.Stat(experiments.ManifestPath(dir, en.exp.ID)); err == nil {
			bytes += fi.Size()
		}
		if err := en.man.Check(); err != nil {
			r.fail("%v", err)
		}

		// Digest and user-visible statistics from what the manifest
		// reports, host times excluded.
		rows, err := json.Marshal(struct {
			P []experiments.ManifestPoint
			T map[string][][]string
		}{en.man.Points, en.man.Tables})
		if err != nil {
			r.fail("%s: manifest encode: %v", en.exp.ID, err)
		}
		for _, b := range rows {
			dg.put(uint64(b))
		}
		for _, p := range en.man.Points {
			if p.Failed || p.Packets == 0 {
				continue
			}
			lats = append(lats, p.MeanLatency)
			thr += p.Throughput
			energy += p.EnergyPJ
			measured++
		}
	}
	runEnd := time.Now()
	if firstPoint.IsZero() {
		r.fail("no sweep point completed")
		firstPoint = runEnd
	}
	r.set("setup_s", firstPoint.Sub(setupStart).Seconds())
	rec.add("setup", "", 0, setupStart, firstPoint)
	rec.add("run", "", 0, firstPoint, runEnd)
	wall := runEnd.Sub(firstPoint).Seconds()

	if measured == 0 {
		r.fail("no sweep point measured a packet")
		measured = 1
	}
	r.digest = dg

	r.set("wall_s", wall)
	// One number per statistic over the measured manifest points, for
	// "did the sweep still report what it reported": the median point's
	// mean latency, the mean throughput and energy.
	r.set("sim_p50_latency_cycles", median(lats))
	r.set("sim_accepted_flits_per_cycle_node", thr/float64(measured))
	r.set("sim_energy_pj_per_packet", energy/float64(measured))

	r.set("sweep.points", float64(len(pointTimes)))
	r.set("sweep.points_per_s", float64(len(pointTimes))/wall)
	r.set("experiments.manifest_write_s", writeS)
	r.set("experiments.manifest_bytes", float64(bytes))
	if traced && len(pointTimes) > 0 {
		sort.Float64s(pointTimes)
		r.set("sweep.point_p50_s", median(pointTimes))
		r.set("sweep.point_max_s", pointTimes[len(pointTimes)-1])
		for _, t := range pointTimes {
			r.seqPointS += t
		}
	}
	return r
}
