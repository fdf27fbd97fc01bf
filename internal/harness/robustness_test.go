package harness

import (
	"context"
	"math/rand"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/device"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// TestRandomInputStorm fires randomized event storms — arbitrary events,
// arbitrary (sometimes nonexistent) targets, arbitrary timing — at real
// catalog applications under every governor. Nothing may panic, script
// errors may not appear, energy must accrue monotonically, the ledger must
// conserve energy, and frame attribution invariants must hold.
func TestRandomInputStorm(t *testing.T) {
	events := []string{"click", "touchstart", "touchend", "touchmove", "scroll"}
	appNames := []string{"MSN", "Goo.ne.jp", "Todo", "Craigslist"}
	kinds := []Kind{Perf, Interactive, GreenWebI, GreenWebU, EBSKind}
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 8; trial++ {
		app, _ := apps.ByName(appNames[trial%len(appNames)])
		kind := kinds[trial%len(kinds)]
		dev, err := device.New(NewGovernor(kind), 0, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, cpu, e := dev.Sim, dev.CPU, dev.Engine
		if _, err := e.LoadPage(app.HTML()); err != nil {
			t.Fatal(err)
		}
		dev.Settle(context.Background(), 60*sim.Second)

		// Collect plausible and implausible targets.
		var ids []string
		for _, n := range e.Doc().Elements() {
			if id := n.ID(); id != "" {
				ids = append(ids, id)
			}
		}
		ids = append(ids, "ghost", "", "body")

		at := s.Now()
		var lastEnergy acmp.Joules
		for i := 0; i < 120; i++ {
			at = at.Add(sim.Duration(rng.Intn(30)+1) * sim.Millisecond)
			ev := events[rng.Intn(len(events))]
			target := ids[rng.Intn(len(ids))]
			var data map[string]float64
			if ev == "scroll" || ev == "touchmove" {
				data = map[string]float64{"deltaY": float64(rng.Intn(100) - 50)}
			}
			e.Inject(at, ev, target, data)
		}
		s.RunUntil(at.Add(2 * sim.Second))
		dev.Settle(context.Background(), 30*sim.Second)
		// Energy conservation holds under the storm too.
		if _, _, err := dev.Close(); err != nil {
			t.Fatalf("trial %d (%s/%s): %v", trial, app.Name, kind, err)
		}

		if errs := e.ScriptErrors(); len(errs) > 0 {
			t.Fatalf("trial %d (%s/%s): script errors: %v", trial, app.Name, kind, errs)
		}
		if en := cpu.Energy(); en <= lastEnergy {
			t.Fatalf("trial %d: energy did not accrue", trial)
		}
		// Attribution invariant: no input attributed more than once.
		seen := map[browser.UID]int{}
		for _, fr := range e.Results() {
			for _, il := range fr.Inputs {
				seen[il.Input.UID]++
			}
		}
		for uid, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: input %d attributed %d times", trial, uid, n)
			}
		}
		// Residency always sums to elapsed time.
		var sum sim.Duration
		for _, d := range cpu.Residency() {
			sum += d
		}
		if sum != sim.Duration(s.Now()) {
			t.Fatalf("trial %d: residency %v != elapsed %v", trial, sum, s.Now())
		}
	}
}
