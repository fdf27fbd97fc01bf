// AUTOGREEN — automatic annotation of an unannotated application (paper
// Sec. 5). The example application mixes three animation mechanisms
// (requestAnimationFrame, animate(), CSS transition) and a plain handler;
// AUTOGREEN profiles each event callback, classifies its QoS type, and
// injects the generated rules. The annotated page then runs under the
// GreenWeb runtime without any developer intervention.
package main

import (
	"fmt"
	"log"

	greenweb "github.com/wattwiseweb/greenweb"
)

const plainPage = `<html><head><style>
	#drawer { width: 80px; transition: width 250ms; }
</style></head>
<body>
	<div id="spin">spinner</div>
	<div id="drawer">drawer</div>
	<div id="slide">slide</div>
	<button id="save">save</button>
	<script>
		document.getElementById("spin").addEventListener("touchstart", function(e) {
			var n = 0;
			function turn() {
				n++;
				document.getElementById("spin").style.height = (n % 30) + "px";
				if (n < 30) { requestAnimationFrame(turn); }
			}
			requestAnimationFrame(turn);
		});
		document.getElementById("drawer").addEventListener("click", function(e) {
			document.getElementById("drawer").style.width = "300px";
		});
		document.getElementById("slide").addEventListener("click", function(e) {
			animate(document.getElementById("slide"), "width", 0, 200, 150);
		});
		document.getElementById("save").addEventListener("click", function(e) {
			work(60);
			e.target.textContent = "saved";
		});
	</script>
</body></html>`

func main() {
	annotated, report, err := greenweb.AutoAnnotate(plainPage)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("AUTOGREEN classification (detected evidence in parentheses):")
	for _, f := range report.Findings {
		evidence := "no animation"
		switch {
		case f.RAF:
			evidence = "requestAnimationFrame"
		case f.Animate:
			evidence = "animate()"
		case f.Transition:
			evidence = "CSS transition"
		}
		fmt.Printf("  %-22s on%-10s → %-10v (%s)\n", f.Selector, f.Event, f.Annotation.Type, evidence)
	}

	// The annotated application runs under GreenWeb with no manual rules.
	s, err := greenweb.Open(annotated, greenweb.GreenWebPolicy(greenweb.Usable))
	if err != nil {
		log.Fatal(err)
	}
	s.Tap("spin")
	s.Settle()
	s.Tap("save")
	s.Settle()
	if err := s.Stop(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nannotated app ran: %d frames, %.3f J, violations %.2f%%\n",
		len(s.Frames()), s.Energy(), s.Violation(greenweb.Usable))
}
