package browser

import (
	"math/rand"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// closurePage gives each input kind a different closure (Sec. 6.4): a
// dirtying tap, a tap that starts a four-frame rAF chain, a tap whose
// mutation arrives later through setTimeout, and a handler-less touch that
// completes at dispatch without producing a frame.
const closurePage = `<html><body>
	<div id="d">x</div><div id="a">y</div><div id="t">z</div><div id="n">w</div>
	<script>
		var taps = 0;
		document.getElementById("d").addEventListener("click", function(e) {
			work(20);
			taps++;
			e.target.style.width = taps + "px";
		});
		document.getElementById("a").addEventListener("touchstart", function(e) {
			var el = e.target, left = 4;
			function step() {
				el.style.left = left + "px";
				left--;
				if (left > 0) { requestAnimationFrame(step); }
			}
			requestAnimationFrame(step);
		});
		document.getElementById("t").addEventListener("click", function(e) {
			setTimeout(function() { document.getElementById("t").style.color = "red"; }, 25);
		});
	</script></body></html>`

// completion is one OnEventComplete call: the input, its virtual time, and
// the simulator event it fired in (one completion check).
type completion struct {
	uid   UID
	at    sim.Time
	event uint64
}

// closureGovernor records completions and checks, as they happen, that an
// input completes only once nothing references it: no refcount, no queued
// message, no dirty provenance, no pending rAF callback or transition, and
// no frame started or finished after its completion that carries it.
type closureGovernor struct {
	recordingGovernor
	t    *testing.T
	log  []completion
	done map[UID]sim.Time
}

func (g *closureGovernor) OnFrameStart(seq int, prov Provenance) {
	for _, uid := range prov {
		if at, ok := g.done[uid]; ok {
			g.t.Errorf("frame %d starts carrying input %d, completed at %v", seq, uid, at)
		}
	}
}

func (g *closureGovernor) OnFrameEnd(fr *FrameResult) {
	for _, il := range fr.Inputs {
		if at, ok := g.done[il.Input.UID]; ok {
			g.t.Errorf("frame %d reports input %d, completed at %v", fr.Seq, il.Input.UID, at)
		}
	}
}

func (g *closureGovernor) OnEventComplete(uid UID) {
	e := g.e
	if _, dup := g.done[uid]; dup {
		g.t.Errorf("input %d completed twice", uid)
	}
	if n := e.refs[uid]; n != 0 {
		g.t.Errorf("input %d completed with refcount %d", uid, n)
	}
	for _, m := range e.msgQueue {
		if m.UID == uid {
			g.t.Errorf("input %d completed with a queued message", uid)
		}
	}
	if e.dirtyProv.Has(uid) {
		g.t.Errorf("input %d completed while it still dirties the next frame", uid)
	}
	for _, r := range e.rafQueue {
		if r.prov.Has(uid) {
			g.t.Errorf("input %d completed with rAF callback %d pending", uid, r.id)
		}
	}
	for _, tr := range e.transitions {
		if tr.prov.Has(uid) {
			g.t.Errorf("input %d completed with a running transition", uid)
		}
	}
	g.done[uid] = e.Sim().Now()
	g.log = append(g.log, completion{uid: uid, at: e.Sim().Now(), event: e.Sim().Fired()})
}

// TestOverlappingInputsCompleteExactlyOnce injects a seeded burst of
// overlapping inputs — taps, rAF chains, timeouts, handler-less touches,
// some at the same instant — on a slow configuration, so many closures are
// open at once and several close in one completion check.
func TestOverlappingInputsCompleteExactlyOnce(t *testing.T) {
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := New(s, cpu, nil)
	led := ledger.New(cpu)
	e.SetLedger(led)
	g := &closureGovernor{t: t, done: make(map[UID]sim.Time)}
	e.SetGovernor(g)
	cpu.SetConfig(acmp.LowestConfig())
	if _, err := e.LoadPage(closurePage); err != nil {
		t.Fatal(err)
	}
	s.Run()

	inputs := []struct{ event, target string }{
		{"click", "d"}, {"touchstart", "a"}, {"click", "t"}, {"touchend", "n"},
	}
	rng := rand.New(rand.NewSource(13))
	at := s.Now()
	const burst = 80
	for i := 0; i < burst; i++ {
		at = at.Add(sim.Duration(rng.Intn(12)) * sim.Millisecond) // 0 = same instant
		in := inputs[rng.Intn(len(inputs))]
		e.Inject(at, in.event, in.target, nil)
	}
	s.Run()

	recs := e.InputRecords()
	if len(recs) != burst+1 {
		t.Fatalf("%d inputs recorded, want %d (load + burst)", len(recs), burst+1)
	}
	for uid := range recs {
		if _, ok := g.done[uid]; !ok {
			t.Errorf("input %d never completed", uid)
		}
	}
	if len(g.log) != len(recs) {
		t.Errorf("%d completions for %d inputs", len(g.log), len(recs))
	}
	if len(e.refs) != 0 {
		t.Errorf("refcount table still tracks %d inputs after the run drained; completed inputs must leave it", len(e.refs))
	}

	// Completions reported in one simulator event come from one completion
	// check and must arrive in ascending UID order.
	biggest := 1
	for i, run := 1, 1; i < len(g.log); i++ {
		prev, cur := g.log[i-1], g.log[i]
		if cur.event != prev.event {
			run = 1
			continue
		}
		run++
		biggest = max(biggest, run)
		if cur.uid < prev.uid {
			t.Errorf("at %v input %d completed after input %d in the same check", cur.at, cur.uid, prev.uid)
		}
	}
	if biggest < 2 {
		t.Fatal("no completion check closed more than one input; the burst does not overlap")
	}

	// The ledger closes exactly one event span per input, at its completion.
	spans := map[uint64]int{}
	for _, sp := range led.Spans() {
		if sp.Kind != ledger.KindEvent {
			continue
		}
		spans[sp.UID]++
		if done, ok := g.done[UID(sp.UID)]; !ok || sp.End != done {
			t.Errorf("event span %d ends at %v, input completed at %v (%v)", sp.UID, sp.End, done, ok)
		}
	}
	if len(spans) != len(recs) {
		t.Errorf("%d event spans for %d inputs", len(spans), len(recs))
	}
	for uid, n := range spans {
		if n != 1 {
			t.Errorf("input %d has %d event spans", uid, n)
		}
	}
	if err := led.Check(); err != nil {
		t.Error(err)
	}
}
