package harness

import (
	"os"
	"strings"
	"testing"
)

// TestRenderAllMatchesPinnedReport renders the report on a fresh suite that
// computes its own cells four at a time, and requires the checked-in
// docs/greenbench-report.txt byte for byte.
func TestRenderAllMatchesPinnedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report render in -short mode")
	}
	want, err := os.ReadFile("../../docs/greenbench-report.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite()
	s.SetWorkers(4)
	var b strings.Builder
	if err := RenderAll(&b, s); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("report differs from docs/greenbench-report.txt at byte %d: got %q",
			i, got[i:min(i+80, len(got))])
	}
}

// TestRenderAllReport exercises the full report pipeline (what
// cmd/greenbench prints) and checks every table and figure section is
// present with plausible content. It reuses the shared suite's cached runs.
func TestRenderAllReport(t *testing.T) {
	var b strings.Builder
	if err := RenderAll(&b, shared); err != nil {
		t.Fatal(err)
	}
	report := b.String()

	sections := []string{
		"Table 1 — interaction categories",
		"Table 2 — GreenWeb API rule forms",
		"Table 3 — applications",
		"Fig. 9a/9b — microbenchmarks",
		"Fig. 10a/b/c — full interactions",
		"Fig. 11a — configuration distribution, GreenWeb-I",
		"Fig. 11b — configuration distribution, GreenWeb-U",
		"Fig. 12 — configuration switching",
		"Ablation — single-cluster runtimes",
		"Ablation — reactive vs profiling-guided predictor",
		"Comparison — manual vs AUTOGREEN annotations",
		"Comparison — EBS",
	}
	for _, s := range sections {
		if !strings.Contains(report, s) {
			t.Errorf("report missing section %q", s)
		}
	}
	// Every application appears.
	for _, app := range []string{"BBC", "Google", "CamanJS", "LZMA-JS", "MSN", "Todo",
		"Amazon", "Craigslist", "Paper.js", "Cnet", "Goo.ne.jp", "W3Schools"} {
		if strings.Count(report, app) < 5 {
			t.Errorf("app %s appears fewer than 5 times", app)
		}
	}
	// Paper reference numbers are cited next to ours.
	for _, ref := range []string{"31.9%", "78.0%", "29.2%", "66.0%"} {
		if !strings.Contains(report, ref) {
			t.Errorf("report missing paper reference %s", ref)
		}
	}
	if len(report) < 4000 {
		t.Fatalf("report suspiciously short: %d bytes", len(report))
	}
}
