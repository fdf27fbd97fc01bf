// User-agent intervention against mis-annotation — the defense the paper
// sketches in Sec. 8. A page demands an absurd 1 ms QoS target on an
// endless animation (an energy bug or a deliberate attack), forcing the
// runtime to peak performance forever. The UAI policy assigns each event
// class an energy budget; once exceeded, the annotation is ignored and the
// event is treated as unannotated.
package main

import (
	"fmt"
	"log"

	"github.com/wattwiseweb/greenweb/internal/core"
	"github.com/wattwiseweb/greenweb/internal/device"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

const misannotated = `<html><head><style>
	/* Malicious or buggy: a 1 ms target nothing can meet. */
	div#spin:QoS { onclick-qos: continuous, 1, 1; }
</style></head>
<body>
	<div id="spin">widget</div>
	<script>
		var started = false;
		document.getElementById("spin").addEventListener("click", function(e) {
			if (started) { return; }
			started = true;
			var n = 0;
			function loop() {
				n++;
				work(40);
				document.getElementById("spin").style.height = (n % 40) + "px";
				requestAnimationFrame(loop); // never stops
			}
			requestAnimationFrame(loop);
		});
	</script>
</body></html>`

func run(uai *core.UAIPolicy) (joules float64, suppressed []string) {
	opts := core.Options{Scenario: qos.Imperceptible, UAI: uai}
	dev, err := device.New(core.New(opts), 0, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := dev.Engine.LoadPage(misannotated); err != nil {
		log.Fatal(err)
	}
	dev.Sim.RunUntil(sim.Time(sim.Second))
	dev.Engine.Inject(dev.Sim.Now(), "click", "spin", nil)
	dev.Sim.RunUntil(dev.Sim.Now().Add(10 * sim.Second))
	if _, _, err := dev.Close(); err != nil {
		log.Fatal(err)
	}
	if uai != nil {
		suppressed = uai.SuppressedClasses()
	}
	return float64(dev.CPU.Energy()), suppressed
}

func main() {
	unprotected, _ := run(nil)
	fmt.Printf("without UAI: %.2f J over 10 s of runaway peak-pinned animation\n", unprotected)

	policy := core.NewUAIPolicy(0.5) // half a joule per event class
	protected, suppressed := run(policy)
	fmt.Printf("with UAI:    %.2f J — budget tripped, annotation ignored\n", protected)
	for _, class := range suppressed {
		fmt.Printf("  suppressed class: %s (spent %.2f J before the budget hit)\n",
			class, float64(policy.Spent(class)))
	}
	fmt.Printf("\nenergy saved by the intervention: %.1f%%\n", 100*(1-protected/unprotected))
}
