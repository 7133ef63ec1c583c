package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// ManifestSchemaVersion is bumped on any incompatible change to the
// manifest JSON layout (including Result field renames).
const ManifestSchemaVersion = 1

// Manifest is the machine-readable result of one experiment run, written
// as BENCH_<experiment>.json next to the CSV output. CI diffs these files
// across commits to track performance trajectories; cmd/checkmanifest
// validates them.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Experiment    string `json:"experiment"`
	Title         string `json:"title"`
	// Git is `git describe --always --dirty` of the producing tree, when
	// known.
	Git    string         `json:"git,omitempty"`
	Config ManifestConfig `json:"config"`
	// Points holds one row per point the sweep pool simulated, in
	// deterministic (submission) order, a failed job's row after the rows
	// of the points it finished. Failed points carry Failed/Err and zero
	// metrics.
	Points []ManifestPoint `json:"points"`
	// Tables holds the derived tables an experiment reports besides its
	// points (table1, fig08, table3, table4, topo, economy, linkfail and
	// the fault and collective tables, which include their scripted
	// scenarios), keyed by CSV name. Row 0 is the header.
	Tables map[string][][]string `json:"tables,omitempty"`
	// FailedPoints counts points with Failed set.
	FailedPoints int `json:"failed_points"`
	// WallClockMS is the experiment's total wall-clock time.
	WallClockMS int64 `json:"wall_clock_ms"`
	// Costs holds one row per job the sweep pool ran, in submission order,
	// the scripted scenarios that record no point included. They are host
	// measurements, different on every run, so they stay out of Points and
	// Tables, which digests hash.
	Costs []JobCost `json:"costs,omitempty"`
	// PoolIdleMS is the pool's slot time no job used: WallClockMS × the
	// pool size (Config.Jobs, at least 1) minus every job's wall time, to
	// the millisecond of WallClockMS. Write fills it in.
	PoolIdleMS int64 `json:"pool_idle_ms,omitempty"`

	mu sync.Mutex
}

// ManifestConfig pins the options the run was produced with, so two
// manifests are comparable only when their configs match.
type ManifestConfig struct {
	Full    bool  `json:"full"`
	Tiny    bool  `json:"tiny"`
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	Jobs    int   `json:"jobs"`
}

// ManifestPoint is one operating point: an embedded Result plus failure
// reporting for points that panicked, timed out or errored.
type ManifestPoint struct {
	// Key identifies failed points, which produce no Result. A successful
	// point is identified by its Result's system, workload and
	// offered_rate, no two alike within a manifest.
	Key string `json:"key,omitempty"`
	Result
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"err,omitempty"`
}

// JobCost is what one sweep job cost: its wall time and what the engine did
// for its points.
type JobCost struct {
	Key    string `json:"key"`
	WallUS int64  `json:"wall_us"`
	Cycles
}

// Cycles is what the engine did for one or more points: cycles stepped and
// fast-forwarded, and the most shards a point's run ended on.
type Cycles struct {
	Stepped int64 `json:"cycles_stepped"`
	Skipped int64 `json:"cycles_skipped"`
	Shards  int   `json:"shards"`
}

func (c *Cycles) add(o Cycles) {
	c.Stepped += o.Stepped
	c.Skipped += o.Skipped
	c.Shards = max(c.Shards, o.Shards)
}

// NewManifest starts a manifest for one experiment run.
func NewManifest(e Experiment, git string, o Options) *Manifest {
	return &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Experiment:    e.ID,
		Title:         e.Title,
		Git:           git,
		Config: ManifestConfig{
			Full: o.Full, Tiny: o.Tiny, Seed: o.Seed,
			Workers: o.Workers, Jobs: o.Jobs,
		},
	}
}

// Record appends successful result rows. Safe on a nil manifest and for
// concurrent use. NaN/Inf metrics — possible only for points that measured
// zero packets — are recorded as 0, since JSON has no encoding for them.
func (m *Manifest) Record(rs ...Result) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range rs {
		m.Points = append(m.Points, ManifestPoint{Result: sanitizeResult(r)})
	}
}

// RecordFailure appends a failed point. Safe on a nil manifest.
func (m *Manifest) RecordFailure(key string, err error) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Points = append(m.Points, ManifestPoint{Key: key, Failed: true, Err: err.Error()})
	m.FailedPoints++
}

// RecordCost appends a job's cost row. Safe on a nil manifest.
func (m *Manifest) RecordCost(c JobCost) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Costs = append(m.Costs, c)
}

// poolSize is how many jobs the pool ran at once at most.
func (m *Manifest) poolSize() int64 {
	return int64(max(m.Config.Jobs, 1))
}

// jobWallUS sums the cost rows' wall times.
func (m *Manifest) jobWallUS() (us int64) {
	for _, c := range m.Costs {
		us += c.WallUS
	}
	return us
}

// RecordTable stores a derived table (header + rows). Safe on a nil
// manifest.
func (m *Manifest) RecordTable(name string, header []string, rows [][]string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Tables == nil {
		m.Tables = make(map[string][][]string)
	}
	m.Tables[name] = append([][]string{header}, rows...)
}

func sanitizeResult(r Result) Result {
	for _, f := range []*float64{
		&r.Rate, &r.MeanLatency, &r.NetLatency, &r.StdDev, &r.Throughput,
		&r.EnergyPJ, &r.EnergyOnChipPJ, &r.EnergyIfacePJ, &r.HopsOnChip, &r.HopsIface,
	} {
		if math.IsNaN(*f) || math.IsInf(*f, 0) {
			*f = 0
		}
	}
	return r
}

// ManifestPath returns dir/BENCH_<id>.json.
func ManifestPath(dir, id string) string {
	return filepath.Join(dir, "BENCH_"+id+".json")
}

// Write emits the manifest as indented JSON to ManifestPath(dir,
// m.Experiment), creating dir as needed, with PoolIdleMS derived from
// WallClockMS and the cost rows.
func (m *Manifest) Write(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.Costs) > 0 {
		m.PoolIdleMS = max(0, m.WallClockMS*m.poolSize()-m.jobWallUS()/1000)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(ManifestPath(dir, m.Experiment), data, 0o644)
}

// ReadManifest parses a manifest file, rejecting unknown fields.
func ReadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m Manifest
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("experiments: malformed manifest %s: %w", path, err)
	}
	return &m, nil
}

// Check validates a manifest for CI: schema version, identity, internal
// failure-count consistency, non-emptiness, zero failed points, and the
// cost ledger.
func (m *Manifest) Check() error {
	if m.SchemaVersion != ManifestSchemaVersion {
		return fmt.Errorf("manifest schema version %d, want %d", m.SchemaVersion, ManifestSchemaVersion)
	}
	if m.Experiment == "" {
		return fmt.Errorf("manifest has no experiment ID")
	}
	if len(m.Points) == 0 && len(m.Tables) == 0 {
		return fmt.Errorf("manifest %s is empty: no points and no tables", m.Experiment)
	}
	failed := 0
	for _, p := range m.Points {
		if p.Failed {
			failed++
		}
	}
	if failed != m.FailedPoints {
		return fmt.Errorf("manifest %s is inconsistent: failed_points=%d but %d points marked failed",
			m.Experiment, m.FailedPoints, failed)
	}
	if failed > 0 {
		first := ""
		for _, p := range m.Points {
			if p.Failed {
				first = fmt.Sprintf("%s: %s", p.Key, p.Err)
				break
			}
		}
		return fmt.Errorf("manifest %s has %d failed point(s); first: %s", m.Experiment, failed, first)
	}
	if err := m.checkCosts(); err != nil {
		return fmt.Errorf("manifest %s: %w", m.Experiment, err)
	}
	return nil
}

// checkCosts holds the cost ledger to one row per job: every recorded point
// came from a job, so points need cost rows; no job key repeats; and the
// jobs' wall times fit in the pool's slot time, WallClockMS (plus the
// millisecond it truncates) × the pool size.
func (m *Manifest) checkCosts() error {
	if len(m.Points) > 0 && len(m.Costs) == 0 {
		return fmt.Errorf("%d points but no job cost rows", len(m.Points))
	}
	rows := make(map[string]bool, len(m.Costs))
	for _, c := range m.Costs {
		switch {
		case c.Key == "":
			return fmt.Errorf("a job cost row has no key")
		case rows[c.Key]:
			return fmt.Errorf("job %s has two cost rows", c.Key)
		case c.WallUS < 0 || c.Stepped < 0 || c.Skipped < 0 || c.Shards < 0:
			return fmt.Errorf("job %s has a negative cost: %+v", c.Key, c)
		}
		rows[c.Key] = true
	}
	if sum, slot := m.jobWallUS(), (m.WallClockMS+1)*1000*m.poolSize(); sum > slot {
		return fmt.Errorf("jobs took %d µs of wall time, more than the %d µs a pool of %d has in %d ms",
			sum, slot, m.poolSize(), m.WallClockMS)
	}
	return nil
}
