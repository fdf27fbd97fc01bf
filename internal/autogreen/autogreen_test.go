package autogreen

import (
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/html"
	"github.com/wattwiseweb/greenweb/internal/qos"
)

// mixedPage has one rAF animation event, one CSS transition event, one
// animate() event, and one plain single event.
const mixedPage = `<html><head><style>
		#trans { width: 100px; transition: width 200ms; }
	</style></head>
	<body>
		<div id="raf">a</div>
		<div id="trans">b</div>
		<div id="anim">c</div>
		<button id="plain">d</button>
		<script>
			document.getElementById("raf").addEventListener("touchstart", function(e) {
				var n = 0;
				function step() {
					n++;
					document.getElementById("raf").style.height = n + "px";
					if (n < 10) { requestAnimationFrame(step); }
				}
				requestAnimationFrame(step);
			});
			document.getElementById("trans").addEventListener("touchstart", function(e) {
				document.getElementById("trans").style.width = "300px";
			});
			document.getElementById("anim").addEventListener("click", function(e) {
				animate(document.getElementById("anim"), "width", 0, 50, 100);
			});
			document.getElementById("plain").addEventListener("click", function(e) {
				e.target.textContent = "clicked";
			});
		</script>
	</body></html>`

func findingFor(t *testing.T, r *Report, sel, event string) Finding {
	t.Helper()
	for _, f := range r.Findings {
		if f.Selector == sel && f.Event == event {
			return f
		}
	}
	t.Fatalf("no finding for %s@%s in %+v", sel, event, r.Findings)
	return Finding{}
}

func TestAnalyzeClassifiesQoSTypes(t *testing.T) {
	report, err := Analyze(mixedPage)
	if err != nil {
		t.Fatal(err)
	}
	raf := findingFor(t, report, "div#raf", "touchstart")
	if raf.Annotation.Type != qos.Continuous || !raf.RAF {
		t.Fatalf("raf finding = %+v", raf)
	}
	trans := findingFor(t, report, "div#trans", "touchstart")
	if trans.Annotation.Type != qos.Continuous || !trans.Transition {
		t.Fatalf("transition finding = %+v", trans)
	}
	anim := findingFor(t, report, "div#anim", "click")
	if anim.Annotation.Type != qos.Continuous || !anim.Animate {
		t.Fatalf("animate finding = %+v", anim)
	}
	plain := findingFor(t, report, "button#plain", "click")
	if plain.Annotation.Type != qos.Single {
		t.Fatalf("plain finding = %+v", plain)
	}
	// Conservative default: single events are annotated short.
	if plain.Annotation.Duration != qos.Short || plain.Annotation.Target != qos.SingleShortTarget {
		t.Fatalf("single not conservative: %+v", plain.Annotation)
	}
}

func TestAnalyzeAlwaysAnnotatesLoad(t *testing.T) {
	report, err := Analyze(`<html><body><p>static</p></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	load := findingFor(t, report, "body", "load")
	if load.Annotation.Type != qos.Single || load.Annotation.Duration != qos.Long {
		t.Fatalf("load annotation = %+v", load.Annotation)
	}
}

func TestAnnotateInjectsWorkingRules(t *testing.T) {
	annotated, report, err := Annotate(mixedPage)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Findings) < 5 {
		t.Fatalf("findings = %d", len(report.Findings))
	}
	if !strings.Contains(annotated, ":QoS") {
		t.Fatal("annotated page lacks :QoS rules")
	}
	// The annotated page must parse and resolve annotations.
	doc := html.Parse(annotated)
	var sheets []*css.Stylesheet
	for _, s := range html.StyleSources(doc) {
		sheet, errs := css.Parse(s)
		if len(errs) > 0 {
			t.Fatalf("annotated css: %v", errs)
		}
		sheets = append(sheets, sheet)
	}
	as := css.NewAnnotationSet(sheets...)
	a, ok := as.Lookup(doc.GetElementByID("raf"), "touchstart")
	if !ok || a.Type != qos.Continuous {
		t.Fatalf("annotation lookup on annotated page = %+v, %v", a, ok)
	}
	b, ok := as.Lookup(doc.GetElementByID("plain"), "click")
	if !ok || b.Type != qos.Single {
		t.Fatalf("plain lookup = %+v, %v", b, ok)
	}
	// Load annotation on body.
	if _, ok := as.Lookup(doc.GetElementsByTag("body")[0], "load"); !ok {
		t.Fatal("load annotation missing")
	}
}

func TestAnnotatedPageStillRuns(t *testing.T) {
	annotated, _, err := Annotate(mixedPage)
	if err != nil {
		t.Fatal(err)
	}
	// The annotated application must still boot and behave.
	dev, err := boot(annotated)
	if err != nil {
		t.Fatal(err)
	}
	e := dev.Engine
	if len(e.ScriptErrors()) > 0 {
		t.Fatalf("annotated page script errors: %v", e.ScriptErrors())
	}
	res := e.ProfileEvent(e.Doc().GetElementByID("plain"), "click", nil)
	if res.HandlersRun != 1 {
		t.Fatalf("handlers = %d", res.HandlersRun)
	}
	if _, _, err := dev.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorsPreferIDs(t *testing.T) {
	page := `<html><body>
		<div class="c1 c2"><span>x</span></div>
		<script>
			document.getElementsByClassName("c1")[0].addEventListener("click", function(e) {});
			document.getElementsByTagName("span")[0].addEventListener("click", function(e) {});
		</script>
	</body></html>`
	report, err := Analyze(page)
	if err != nil {
		t.Fatal(err)
	}
	if f := findingFor(t, report, "div.c1.c2", "click"); f.Annotation.Type != qos.Single {
		t.Fatalf("class selector finding = %+v", f)
	}
	findingFor(t, report, "span", "click") // bare-tag fallback must exist
}

func TestDuplicateTargetsCollapsed(t *testing.T) {
	page := `<html><body><div id="d">x</div>
		<script>
			var el = document.getElementById("d");
			el.addEventListener("click", function(e) {});
			el.addEventListener("click", function(e) {});
		</script></body></html>`
	report, err := Analyze(page)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range report.Findings {
		if f.Selector == "div#d" && f.Event == "click" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("duplicate annotations: %d", n)
	}
}

func TestInjectStyleNoHead(t *testing.T) {
	out, err := InjectStyle(`<body><p>x</p></body>`, "p { color: red; }")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "color: red") {
		t.Fatalf("style not injected: %s", out)
	}
	if _, err := InjectStyle(`just text`, "x{}"); err == nil {
		t.Fatal("expected error for document without head or body")
	}
}

func TestReportRules(t *testing.T) {
	report, err := Analyze(mixedPage)
	if err != nil {
		t.Fatal(err)
	}
	sheet, err := report.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if len(sheet.Rules) != len(report.Findings) {
		t.Fatalf("rules = %d, findings = %d", len(sheet.Rules), len(report.Findings))
	}
	// All generated rules carry :QoS.
	for _, r := range sheet.Rules {
		if !r.Selectors[0].HasQoS() {
			t.Fatalf("rule lacks :QoS: %s", r.String())
		}
	}
}
