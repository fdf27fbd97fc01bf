// Quickstart: annotate a small application with GreenWeb QoS rules, run it
// under the GreenWeb runtime and under the Perf baseline, and compare the
// energy the two spend delivering the same interaction.
package main

import (
	"fmt"
	"log"
	"sort"

	greenweb "github.com/wattwiseweb/greenweb"
)

// page is a minimal application: a button whose handler does a moderate
// amount of work. The GreenWeb rules (note the :QoS pseudo-class and the
// on<event>-qos properties) declare that the click is judged by a single
// response frame users expect quickly, and that loading is a long single
// interaction.
const page = `<html><head><style>
	body:QoS   { onload-qos: single, long; }
	div#go:QoS { onclick-qos: single, short; }
</style></head>
<body>
	<div id="go">run</div>
	<div id="out"></div>
	<script>
		var runs = 0;
		document.getElementById("go").addEventListener("click", function(e) {
			runs++;
			work(80); // the computation behind the response
			document.getElementById("out").textContent = "done " + runs;
		});
	</script>
</body></html>`

func drive(p greenweb.Policy) *greenweb.Session {
	s, err := greenweb.Open(page, p)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Tap("go")
		s.Settle()
	}
	if err := s.Stop(); err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	perf := drive(greenweb.PerfPolicy())
	gw := drive(greenweb.GreenWebPolicy(greenweb.Usable))

	fmt.Println("annotations on the page:")
	for _, a := range gw.Annotations() {
		fmt.Println("  " + a)
	}
	fmt.Printf("\nPerf:       %.3f J, violations %.2f%%\n",
		perf.Energy(), perf.Violation(greenweb.Usable))
	fmt.Printf("GreenWeb-U: %.3f J, violations %.2f%%\n",
		gw.Energy(), gw.Violation(greenweb.Usable))
	fmt.Printf("\nenergy saving: %.1f%%\n", 100*(1-gw.Energy()/perf.Energy()))
	fmt.Println("\nGreenWeb-U residency (where the time went):")
	res := gw.Residency()
	cfgs := make([]string, 0, len(res))
	for cfg := range res {
		cfgs = append(cfgs, cfg)
	}
	sort.Strings(cfgs)
	for _, cfg := range cfgs {
		if res[cfg] > 0.01 {
			fmt.Printf("  %-14s %5.1f%%\n", cfg, res[cfg]*100)
		}
	}
}
