// Shopping cart: a realistic mini-application exercising the breadth of
// the Web substrate — querySelector, JSON state, switch/try-catch control
// flow, array reduce, a rAF checkout animation — annotated with GreenWeb
// rules and driven under three policies for comparison.
package main

import (
	"fmt"
	"log"

	greenweb "github.com/wattwiseweb/greenweb"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

const page = `<html><head><style>
	#status { width: 100px; }
	body:QoS          { onload-qos: single, long; }
	div[data-action]:QoS { onclick-qos: single, short; }
	div#checkout:QoS  { onclick-qos: continuous; }
</style></head>
<body>
	<div id="add-apple"  data-action="add"    data-sku="apple"  data-price="3">add apple</div>
	<div id="add-pear"   data-action="add"    data-sku="pear"   data-price="5">add pear</div>
	<div id="remove-one" data-action="remove" data-sku="apple">remove apple</div>
	<div id="checkout">checkout</div>
	<div id="status">empty</div>
	<div id="total">0</div>
	<script>
		var cart = JSON.parse('{"items": []}');

		function render() {
			var total = cart.items.reduce(function(sum, it) { return sum + it.price; }, 0);
			document.querySelector("#total").textContent = "" + total;
			document.querySelector("#status").textContent = cart.items.length + " items";
		}

		function handle(e) {
			var action = e.target.getAttribute("data-action");
			try {
				switch (action) {
				case "add":
					cart.items.push({
						sku: e.target.getAttribute("data-sku"),
						price: Number(e.target.getAttribute("data-price"))
					});
					break;
				case "remove":
					var sku = e.target.getAttribute("data-sku");
					cart.items = cart.items.filter(function(it) { return it.sku !== sku; });
					break;
				default:
					throw "unknown action: " + action;
				}
				work(25); // cart revalidation, price rules
				render();
			} catch (err) {
				document.querySelector("#status").textContent = "error: " + err;
			}
		}

		var buttons = document.querySelectorAll("div[data-action]");
		for (var i = 0; i < buttons.length; i++) {
			buttons[i].addEventListener("click", handle);
		}

		document.querySelector("#checkout").addEventListener("click", function(e) {
			// Persist the cart, then play a progress animation.
			var snapshot = JSON.stringify(cart);
			console.log("checkout", snapshot);
			var f = 0;
			function spin() {
				f++;
				work(12);
				document.querySelector("#status").style.width = (100 + f * 8) + "px";
				if (f < 30) { requestAnimationFrame(spin); }
			}
			requestAnimationFrame(spin);
		});
	</script>
</body></html>`

func drive(p greenweb.Policy) *greenweb.Session {
	s, err := greenweb.Open(page, p)
	if err != nil {
		log.Fatal(err)
	}
	for _, target := range []string{"add-apple", "add-pear", "add-apple", "remove-one"} {
		s.Tap(target)
		s.RunFor(300 * sim.Millisecond)
	}
	s.Tap("checkout")
	s.Settle()
	if err := s.Stop(); err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	var sessions []*greenweb.Session
	policies := []greenweb.Policy{
		greenweb.PerfPolicy(),
		greenweb.InteractivePolicy(),
		greenweb.GreenWebPolicy(greenweb.Usable),
	}
	for _, p := range policies {
		sessions = append(sessions, drive(p))
	}

	// The application state is policy-independent — scheduling never
	// changes semantics, only time and energy.
	ref := sessions[0].ConsoleLines()
	for i, s := range sessions {
		lines := s.ConsoleLines()
		if len(lines) != len(ref) || lines[0] != ref[0] {
			log.Fatalf("policy %s changed app behaviour: %v", policies[i].Name(), lines)
		}
	}
	fmt.Println("cart state at checkout (all policies identical):")
	fmt.Println(" ", ref[0])

	fmt.Println("\npolicy comparison over the same session:")
	for i, s := range sessions {
		fmt.Printf("  %-12s %.3f J, %3d frames, violations %.2f%%\n",
			policies[i].Name(), s.Energy(), len(s.Frames()), s.Violation(greenweb.Usable))
	}
	perf, gw := sessions[0], sessions[2]
	fmt.Printf("\nGreenWeb-U saves %.1f%% vs Perf on this session\n",
		100*(1-gw.Energy()/perf.Energy()))
}
