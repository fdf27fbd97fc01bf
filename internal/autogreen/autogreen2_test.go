package autogreen

import (
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/qos"
)

// Additional AUTOGREEN coverage: counterpart matching without ids,
// skip paths, and whole-catalog annotation.

func TestFindCounterpartByPath(t *testing.T) {
	// Listener on an id-less node: counterpart located by element path.
	page := `<html><body>
		<div><span class="hot">x</span></div>
		<script>
			document.getElementsByClassName("hot")[0].addEventListener("click", function(e) {
				e.target.setAttribute("data-hit", "1");
			});
		</script>
	</body></html>`
	report, err := Analyze(page)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range report.Findings {
		if f.Selector == "span.hot" && f.Event == "click" {
			found = true
		}
	}
	if !found {
		t.Fatalf("path-matched finding missing: %+v", report.Findings)
	}
}

func TestScrollEventProfiledWithDelta(t *testing.T) {
	// Profiling synthesizes a scroll payload; the handler reads deltaY.
	page := `<html><body><div id="list">x</div>
		<script>
			document.getElementById("list").addEventListener("scroll", function(e) {
				if (e.deltaY > 0) {
					document.getElementById("list").setAttribute("data-y", e.deltaY);
				}
			});
		</script></body></html>`
	report, err := Analyze(page)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range report.Findings {
		if f.Event == "scroll" {
			if f.Annotation.Type != qos.Single {
				t.Fatalf("scroll classified %v", f.Annotation.Type)
			}
			return
		}
	}
	t.Fatal("scroll finding missing")
}

// TestWholeCatalogAnnotates runs AUTOGREEN over every Table 3 application's
// unannotated source: each must produce a load finding plus at least one
// event finding, and the annotated page must still load without script
// errors.
func TestWholeCatalogAnnotates(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			annotated, report, err := Annotate(a.BaseHTML)
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Findings) < 2 {
				t.Fatalf("findings = %d", len(report.Findings))
			}
			if len(report.Skipped) > 0 {
				t.Errorf("skipped: %v", report.Skipped)
			}
			if !strings.Contains(annotated, "onload-qos") {
				t.Fatal("load rule missing")
			}
			dev, err := boot(annotated)
			if err != nil {
				t.Fatal(err)
			}
			if errs := dev.Engine.ScriptErrors(); len(errs) > 0 {
				t.Fatalf("annotated app errors: %v", errs)
			}
			if _, _, err := dev.Close(); err != nil {
				t.Fatal(err)
			}
			// The catalog's continuous-microbenchmark apps must have at
			// least one continuous finding.
			if a.QoSType == qos.Continuous && a.Interaction == "Tapping" {
				hasContinuous := false
				for _, f := range report.Findings {
					if f.Annotation.Type == qos.Continuous {
						hasContinuous = true
					}
				}
				if !hasContinuous {
					t.Error("no continuous classification for an animation app")
				}
			}
		})
	}
}
