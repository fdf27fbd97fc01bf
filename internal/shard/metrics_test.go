package shard

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/store"
)

// scrape returns the cluster's exposition.
func scrape(t *testing.T, c *fleet.Cluster) string {
	t.Helper()
	var buf bytes.Buffer
	e := obs.NewExposition(&buf)
	c.WriteMetrics(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExpositionsDeclareEachFamilyOnce: what greensrv serves on /metrics,
// over one local node with a store and over one greennode, and what that
// greennode serves, declare each family once, and every sample (histogram
// _bucket, _sum and _count included) sits under its own family's TYPE line.
func TestExpositionsDeclareEachFamilyOnce(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) { return &harness.Run{}, nil }
	w, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 1, Execute: exec}})
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	local, remote := fleet.New(fleet.Options{Workers: 1, Execute: exec}), fleet.NewWithNodes([]fleet.Node{n})
	defer local.Close()
	defer remote.Close()
	ctx := context.Background()
	withStore, overNode := fleet.NewManager(ctx, local), fleet.NewManager(ctx, remote)
	withStore.SetStore(st, nil)

	scrapes := map[string]string{}
	for name, m := range map[string]*fleet.Manager{"greensrv": withStore, "greensrv -remote-nodes": overNode} {
		s, err := m.Enqueue([]fleet.Job{{App: "Todo", Kind: harness.Perf, Phase: fleet.Micro}})
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		var buf bytes.Buffer
		if err := fleet.NewServer(m).WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		scrapes[name] = buf.String()
	}
	var buf bytes.Buffer
	if err := w.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	scrapes["greennode"] = buf.String()

	for name, want := range map[string]string{
		"greensrv":               "greenweb_store_fsync_seconds",
		"greensrv -remote-nodes": "greenweb_shard_heartbeat_rtt_seconds",
		"greennode":              "greenweb_node_jobs_total",
	} {
		out := scrapes[name]
		if !strings.Contains(out, "\n# TYPE "+want+" ") {
			t.Errorf("%s: no %s family:\n%s", name, want, out)
		}
		declared := map[string]bool{}
		var family, typ string
		for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
			if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
				family, typ, _ = strings.Cut(decl, " ")
				if declared[family] {
					t.Errorf("%s: family %s declared twice", name, family)
				}
				declared[family] = true
				continue
			}
			if strings.HasPrefix(line, "# HELP ") {
				continue
			}
			series, _, _ := strings.Cut(line, " ")
			series, _, _ = strings.Cut(series, "{")
			own := []string{family}
			if typ == "histogram" {
				own = []string{family + "_bucket", family + "_sum", family + "_count"}
			}
			if !slices.Contains(own, series) {
				t.Errorf("%s: sample %q sits under family %s's TYPE line", name, line, family)
			}
		}
	}
}
