package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// doomed is a fault spec under which GreenWeb-I cells hit a fault storm:
// GreenWeb-I requests frequency switches constantly, so the 0.95 deny
// probability crosses the storm threshold within a few frames.
var doomed = &faults.Spec{Seed: 3, DVFS: &faults.DVFSSpec{DenyProb: 0.95}, StormAbort: 3}

// TestFailedJobRunsOnce: a storm-doomed cell and a panicking cell each
// execute once, and their rows are failed with the cell's own error and
// carry no retry columns, while a clean cell beside them finishes.
func TestFailedJobRunsOnce(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		mu.Lock()
		runs[j.App]++
		mu.Unlock()
		if j.Kind == harness.Perf {
			panic("cell crashed")
		}
		return j.execute(ctx)
	}
	jobs := []Job{
		{App: "Todo", Kind: harness.GreenWebI, Phase: Full, Faults: doomed},
		{App: "MSN", Kind: harness.Perf, Phase: Full},
		{App: "BBC", Kind: harness.GreenWebI, Phase: Micro},
	}
	c := New(Options{Workers: 2, Execute: exec})
	defer c.Close()
	var buf bytes.Buffer
	if err := WriteResults(&buf, c.RunSweep(context.Background(), jobs), true); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(rows) != len(jobs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(jobs))
	}
	for i, tc := range []struct{ name, err string }{
		{"storm", faults.ErrStorm.Error()},
		{"panic", "fleet: MSN/Perf/full panicked: cell crashed"},
		{"clean", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var row map[string]any
			if err := json.Unmarshal([]byte(rows[i]), &row); err != nil {
				t.Fatal(err)
			}
			state, _ := row["state"].(string)
			msg, _ := row["error"].(string)
			if (tc.err == "") != (state == string(StateDone)) || !strings.Contains(msg, tc.err) {
				t.Errorf("state %q, error %q; want error %q", state, msg, tc.err)
			}
			for _, col := range []string{"attempts", "attempt_errors", "quarantined"} {
				if _, ok := row[col]; ok {
					t.Errorf("row carries the retry column %q: %s", col, rows[i])
				}
			}
			if n := runs[jobs[i].App]; n != 1 {
				t.Errorf("%s executed %d times, want once", jobs[i], n)
			}
		})
	}
	if f := c.failed.Load(); f != 2 {
		t.Errorf("failed counter %d, want 2", f)
	}
}

// TestFaultSweepThermalCapZeroQuarantines runs a real faulted sweep: under a
// standing thermal cap no cell fails (graceful degradation, not job death),
// Perf cells must show the trips, and GreenWeb-I must still beat Perf on
// energy per app.
func TestFaultSweepThermalCapZeroQuarantines(t *testing.T) {
	th := acmp.DefaultThermalParams()
	spec := &faults.Spec{Seed: 21, Thermal: &th}
	appNames := []string{"MSN", "Todo"}
	var jobs []Job
	for _, a := range appNames {
		for _, k := range []harness.Kind{harness.Perf, harness.GreenWebI} {
			jobs = append(jobs, Job{App: a, Kind: k, Phase: Full, Faults: spec})
		}
	}
	p := New(Options{Workers: 2})
	defer p.Close()
	res := p.RunSweep(context.Background(), jobs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d (%s) failed: %v", i, r.Job, r.Err)
		}
	}
	for i := 0; i < len(res); i += 2 {
		perf, green := res[i], res[i+1]
		if perf.Row.ThermalTrips == 0 {
			t.Fatalf("%s: Perf never tripped the thermal governor", perf.Job.App)
		}
		if green.Row.EnergyJ >= perf.Row.EnergyJ {
			t.Fatalf("%s: GreenWeb-I %.3f J not below Perf %.3f J under thermal cap",
				green.Job.App, green.Row.EnergyJ, perf.Row.EnergyJ)
		}
	}
}
