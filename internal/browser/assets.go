package browser

import (
	"sync"

	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/html"
	"github.com/wattwiseweb/greenweb/internal/js"
)

// pageAssets is the parse-once product of one page source: the HTML document
// as an immutable template, the parsed stylesheets, and the compiled
// scripts. A sweep executes the same dozen pages hundreds of times across
// cells and fleet workers; the real tokenizing/tree-building/compiling work
// is identical every time, so it is done once per process and shared.
//
// Everything here is immutable after construction and safe to share across
// goroutines: engines receive a Clone of the template (never the template
// itself), stylesheets are only read by the cascade (their rule index is
// published through an atomic pointer), and compiled programs are read-only
// to the VM (compilation is pure: no interpreter state).
//
// The *simulated* parse cost is charged from the byte counts
// (ParseCyclesPerByte), which do not depend on whether this process
// re-parsed the text — a cold load and a warm one report byte-for-byte
// identical energy and latency.
type pageAssets struct {
	tmpl      *dom.Document
	sheets    []*css.Stylesheet
	scripts   []string
	compiled  []*js.CompiledProgram // parallel to scripts; nil where parsing failed
	parseErrs []error               // parallel to scripts; the error where nil above
}

// assetCache maps page source -> *pageAssets.
var assetCache sync.Map

// ResetAssetCache drops every cached parse. Tests and benchmarks use it to
// measure the cold path.
func ResetAssetCache() {
	assetCache.Range(func(k, _ any) bool {
		assetCache.Delete(k)
		return true
	})
}

// buildAssets parses a page source into its assets.
func buildAssets(src string) *pageAssets {
	a := &pageAssets{tmpl: html.Parse(src)}
	for _, styleSrc := range html.StyleSources(a.tmpl) {
		sheet, _ := css.Parse(styleSrc) // tolerate bad rules like engines do
		a.sheets = append(a.sheets, sheet)
	}
	a.scripts = html.ScriptSources(a.tmpl)
	a.compiled = make([]*js.CompiledProgram, len(a.scripts))
	a.parseErrs = make([]error, len(a.scripts))
	for i, s := range a.scripts {
		prog, err := js.Parse(s)
		if err != nil {
			a.parseErrs[i] = err
			continue
		}
		a.compiled[i] = js.Compile(prog)
	}
	return a
}

// assetsFor returns the assets for a page source, parsing at most once per
// process. Concurrent first loads of the same source may both build;
// LoadOrStore keeps one winner and the loser's work is discarded — cheaper
// than holding a lock across a parse.
func assetsFor(src string) *pageAssets {
	if v, ok := assetCache.Load(src); ok {
		return v.(*pageAssets)
	}
	actual, _ := assetCache.LoadOrStore(src, buildAssets(src))
	return actual.(*pageAssets)
}
