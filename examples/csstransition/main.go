// CSS-transition annotation — the paper's Fig. 4 example, runnable.
//
// A div's width property has a declared 2-second CSS transition. Tapping
// it sets a new width, and the browser animates the change. The developer
// knows the QoS experience is dictated by animation smoothness, so the
// touchstart event is annotated "continuous" with the default targets —
// without having to know *how* the animation is implemented.
package main

import (
	"fmt"
	"log"

	greenweb "github.com/wattwiseweb/greenweb"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

const page = `<html><head><style>
	#ex { width: 100px; transition: width 2s; }

	/* Fig. 4, lines 7-9: the GreenWeb annotation. */
	div#ex:QoS { ontouchstart-qos: continuous; }
</style></head>
<body>
	<div id="ex">expand me</div>
	<script>
		document.getElementById("ex").addEventListener("touchstart", function(e) {
			// Fig. 4's animateExpanding callback: resetting the width
			// starts the declared 2-second transition.
			document.getElementById("ex").style.width = "500px";
		});
		document.getElementById("ex").addEventListener("transitionend", function(e) {
			console.log("transition finished at width " + e.target.style.width);
		});
	</script>
</body></html>`

func main() {
	s, err := greenweb.Open(page, greenweb.GreenWebPolicy(greenweb.Usable))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("annotations:", s.Annotations())

	before := len(s.Frames())
	s.Swipe("ex", 1, 16*sim.Millisecond) // a touch on the element
	s.RunFor(3 * sim.Second)             // the 2 s transition plays out
	s.Settle()
	if err := s.Stop(); err != nil {
		log.Fatal(err)
	}

	frames := s.Frames()[before:]
	fmt.Printf("\nthe tap generated %d animation frames over ~2 s\n", len(frames))
	late := 0
	for _, fr := range frames {
		if fr.ProductionLatency > 33300*sim.Microsecond {
			late++
		}
	}
	fmt.Printf("frames over the usable target (33.3 ms): %d\n", late)
	fmt.Printf("energy: %.3f J, violations: %.2f%%\n", s.Energy(), s.Violation(greenweb.Usable))
	for _, line := range s.ConsoleLines() {
		fmt.Println("console:", line)
	}
}
