// requestAnimationFrame annotation with explicit QoS targets — the paper's
// Fig. 5 example, runnable.
//
// Finger movement drives a rAF-based animation. The developers know the
// animation does not need a full 60 FPS, so they annotate touchmove as
// continuous and overwrite the default targets with 20 ms (imperceptible)
// and 100 ms (usable) — the third rule form of Table 2.
package main

import (
	"fmt"
	"log"
	"sort"

	greenweb "github.com/wattwiseweb/greenweb"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

const page = `<html><head><style>
	/* Fig. 5, lines 3-5: continuous with explicit targets (ms). */
	div#cv:QoS { ontouchmove-qos: continuous, 20, 100; }
</style></head>
<body>
	<div id="cv">canvas</div>
	<script>
		var ticking = false;
		var pos = 0;
		document.getElementById("cv").addEventListener("touchmove", function(e) {
			pos += e.deltaY;
			if (!ticking) {
				ticking = true;
				requestAnimationFrame(function(ts) {
					work(25); // redraw at the new position
					document.getElementById("cv").style.height = pos + "px";
					ticking = false;
				});
			}
		});
	</script>
</body></html>`

func main() {
	for _, scenario := range []greenweb.Scenario{greenweb.Imperceptible, greenweb.Usable} {
		s, err := greenweb.Open(page, greenweb.GreenWebPolicy(scenario))
		if err != nil {
			log.Fatal(err)
		}
		s.Swipe("cv", 60, 16*sim.Millisecond)
		s.Settle()
		if err := s.Stop(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14v energy %.3f J, violations %.2f%%, residency:",
			scenario, s.Energy(), s.Violation(scenario))
		res := s.Residency()
		cfgs := make([]string, 0, len(res))
		for cfg := range res {
			cfgs = append(cfgs, cfg)
		}
		sort.Strings(cfgs)
		for _, cfg := range cfgs {
			if res[cfg] > 0.05 {
				fmt.Printf(" %s=%.0f%%", cfg, res[cfg]*100)
			}
		}
		fmt.Println()
	}
	fmt.Println("\nwith the loose 20/100 ms targets, even the imperceptible scenario")
	fmt.Println("can use low-power configurations the default 16.6 ms would forbid")
}
