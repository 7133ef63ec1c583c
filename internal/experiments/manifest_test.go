package experiments

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testManifest() *Manifest {
	return NewManifest(
		Experiment{ID: "fig99", Title: "synthetic test experiment"},
		"v0-test",
		Options{Tiny: true, Seed: 7, Workers: 2, Jobs: 4},
	)
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	m.Record(
		Result{System: "hetero-phy-torus", Workload: "uniform", Rate: 0.1, MeanLatency: 33.5, Packets: 1000},
		Result{System: "hetero-phy-torus", Workload: "uniform", Rate: 0.2, MeanLatency: 41.0, Packets: 2000, Saturated: true},
	)
	m.RecordTable("fig99_extra", []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	m.RecordCost(JobCost{Key: "fig99/hetero-phy-torus", WallUS: 1_000_500, Cycles: Cycles{Stepped: 9000, Skipped: 1000, Shards: 2}})
	m.WallClockMS = 1234

	dir := t.TempDir()
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	path := ManifestPath(dir, "fig99")
	if filepath.Base(path) != "BENCH_fig99.json" {
		t.Fatalf("manifest path %s", path)
	}

	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatalf("round-tripped manifest fails Check: %v", err)
	}
	if got.Experiment != "fig99" || got.Git != "v0-test" || got.WallClockMS != 1234 {
		t.Fatalf("identity lost: %+v", got)
	}
	if got.Config != m.Config {
		t.Fatalf("config lost: %+v vs %+v", got.Config, m.Config)
	}
	if !reflect.DeepEqual(got.Points, m.Points) {
		t.Fatalf("points differ:\n got %+v\nwant %+v", got.Points, m.Points)
	}
	if !reflect.DeepEqual(got.Tables, m.Tables) {
		t.Fatalf("tables differ:\n got %+v\nwant %+v", got.Tables, m.Tables)
	}
	if !reflect.DeepEqual(got.Costs, m.Costs) {
		t.Fatalf("cost rows differ:\n got %+v\nwant %+v", got.Costs, m.Costs)
	}
	// Four jobs' slots over 1,234 ms, one job used 1,000 of them.
	if got.PoolIdleMS != 4*1234-1000 {
		t.Fatalf("pool idle %d ms, want %d", got.PoolIdleMS, 4*1234-1000)
	}
}

// TestManifestCheckCosts: Check holds the cost ledger to one row per job
// and to the pool's slot time.
func TestManifestCheckCosts(t *testing.T) {
	ok := Result{System: "s", Workload: "w", Rate: 0.1}
	withRows := func(rows ...JobCost) *Manifest {
		m := testManifest() // a pool of 4
		m.Record(ok)
		for _, c := range rows {
			m.RecordCost(c)
		}
		m.WallClockMS = 100
		return m
	}
	if err := withRows(JobCost{Key: "a", WallUS: 250_000}, JobCost{Key: "b", WallUS: 150_999}).Check(); err != nil {
		t.Fatalf("a ledger within 4 × (100 + 1) ms failed Check: %v", err)
	}
	for _, tc := range []struct {
		name string
		m    *Manifest
		want string
	}{
		{"no rows", withRows(), "no job cost rows"},
		{"no key", withRows(JobCost{WallUS: 1}), "no key"},
		{"a job twice", withRows(JobCost{Key: "a"}, JobCost{Key: "a"}), "two cost rows"},
		{"negative", withRows(JobCost{Key: "a", Cycles: Cycles{Skipped: -1}}), "negative"},
		{"over the slot time", withRows(JobCost{Key: "a", WallUS: 250_000}, JobCost{Key: "b", WallUS: 154_001}), "more than"},
	} {
		err := tc.m.Check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check said %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// NaN and Inf have no JSON encoding; Record must flatten them to 0 so
// Write never fails on a zero-packet operating point.
func TestManifestSanitizesNonFiniteMetrics(t *testing.T) {
	m := testManifest()
	m.Record(Result{
		System: "s", Workload: "w", Rate: 0.9,
		MeanLatency: math.NaN(), NetLatency: math.Inf(1), StdDev: math.Inf(-1),
	})
	p := m.Points[0]
	if p.MeanLatency != 0 || p.NetLatency != 0 || p.StdDev != 0 {
		t.Fatalf("non-finite metrics not sanitized: %+v", p)
	}
	if p.Rate != 0.9 {
		t.Fatalf("finite metric clobbered: %+v", p)
	}
	if err := m.Write(t.TempDir()); err != nil {
		t.Fatalf("write after sanitize: %v", err)
	}
}

func TestReadManifestRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"truncated.json": `{"schema_version": 1, "experiment": "fig11"`,
		"unknown.json":   `{"schema_version": 1, "experiment": "fig11", "bogus_field": true}`,
		// A kernel-benchmark manifest of the retired schema: refused, not
		// read as an empty experiment manifest.
		"kernel.json": `{"schema": "heteroif-bench-kernel/v1", "cases": [{"name": "saturated/256nodes", "cycles_per_sec": 6105}]}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path); err == nil {
			t.Fatalf("%s: malformed manifest accepted", name)
		}
	}
	if _, err := ReadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

func TestManifestCheckFailures(t *testing.T) {
	ok := Result{System: "s", Workload: "w", Rate: 0.1}

	wrongVersion := testManifest()
	wrongVersion.SchemaVersion = 99
	wrongVersion.Record(ok)

	noID := testManifest()
	noID.Experiment = ""
	noID.Record(ok)

	empty := testManifest()

	withFailure := testManifest()
	withFailure.Record(ok)
	withFailure.RecordFailure("s/w@0.2", errors.New("job panicked"))

	inconsistent := testManifest()
	inconsistent.Record(ok)
	inconsistent.FailedPoints = 3 // no point actually marked failed

	for _, tc := range []struct {
		name string
		m    *Manifest
		want string
	}{
		{"schema version", wrongVersion, "schema version"},
		{"experiment ID", noID, "no experiment"},
		{"empty", empty, "empty"},
		{"failed point", withFailure, "job panicked"},
		{"inconsistent counts", inconsistent, "inconsistent"},
	} {
		err := tc.m.Check()
		if err == nil {
			t.Fatalf("%s: Check passed, want failure", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// A nil manifest is the no -json case: every recording method must be a
// no-op rather than a crash.
func TestNilManifestSafe(t *testing.T) {
	var m *Manifest
	m.Record(Result{System: "s"})
	m.RecordFailure("k", errors.New("x"))
	m.RecordTable("t", []string{"h"}, nil)
}
