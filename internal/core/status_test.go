package core_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// parseMetrics parses a registry dump.
func parseMetrics(t *testing.T, text string) obs.Samples {
	t.Helper()
	ss, err := obs.ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// transfers reads a site's transfer totals from its own registry.
func transfers(t *testing.T, s *core.Site) (ok, failed, bytes float64) {
	ss := parseMetrics(t, s.Metrics().Text())
	return ss.Sum("gdmp_site_transfers_total", `outcome="ok"`),
		ss.Sum("gdmp_site_transfers_total", `outcome="error"`),
		ss.Sum("gdmp_site_transferred_bytes_total")
}

func TestTransferHistoryAndStatus(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Metrics: obs.NewRegistry()})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Metrics: obs.NewRegistry()})

	pf1 := publish(t, g, cern, "h1.db", testbed.MakeData(100_000, 90), core.PublishOptions{})
	pf2 := publish(t, g, cern, "h2.db", testbed.MakeData(50_000, 91), core.PublishOptions{})
	if err := anl.Get(pf1.LFN); err != nil {
		t.Fatal(err)
	}
	if err := anl.Get(pf2.LFN); err != nil {
		t.Fatal(err)
	}
	// A failed transfer is recorded too.
	if err := anl.Get("lfn://nowhere/ghost"); err == nil {
		t.Fatal("ghost get should fail")
	}

	hist := anl.TransferHistory()
	if len(hist) != 2 {
		t.Fatalf("history = %d records (catalog-level failures are not transfers)", len(hist))
	}
	var bytes int64
	for _, r := range hist {
		if r.Failed {
			t.Fatalf("unexpected failed record %+v", r)
		}
		if r.RateMbps <= 0 || r.Elapsed <= 0 || r.Attempts < 1 || r.Source == "" {
			t.Fatalf("implausible record %+v", r)
		}
		bytes += r.Bytes
	}
	if bytes != 150_000 {
		t.Fatalf("history bytes = %d", bytes)
	}

	local := parseMetrics(t, anl.Metrics().Text())
	for _, c := range []struct {
		name string
		frag string
		want float64
	}{
		{"gdmp_site_info", `site="anl.gov"`, 1},
		{"gdmp_site_local_files", "", 2},
		{"gdmp_site_transfers_total", `outcome="ok"`, 2},
		{"gdmp_site_transfers_total", `outcome="error"`, 0},
		{"gdmp_site_transferred_bytes_total", "", 150_000},
	} {
		var frags []string
		if c.frag != "" {
			frags = append(frags, c.frag)
		}
		if got, ok := local.Value(c.name, frags...); !ok || got != c.want {
			t.Errorf("%s{%s} = %v (present %v), want %v", c.name, c.frag, got, ok, c.want)
		}
	}

	// The same counters are reachable over the Request Manager: every
	// series `gdmp status` renders reads the same remotely as locally.
	text, err := cern.RemoteMetrics(anl.Addr())
	if err != nil {
		t.Fatalf("RemoteMetrics: %v", err)
	}
	remote := parseMetrics(t, text)
	// The metrics RPC itself passes admission control, so the remote dump
	// counts exactly one more admitted request than the local one taken
	// before the call.
	if l, r := local.Sum("gdmp_admission_admitted_total"), remote.Sum("gdmp_admission_admitted_total"); r != l+1 {
		t.Fatalf("remote admitted = %v, want %v", r, l+1)
	}
	compared := 0
	for _, s := range local {
		if !strings.HasPrefix(s.Name, "gdmp_site_") && !strings.HasPrefix(s.Name, "gdmp_health_") &&
			!strings.HasPrefix(s.Name, "gdmp_rls_") && !strings.HasPrefix(s.Name, "gdmp_brownout_") {
			continue
		}
		var frags []string
		for _, l := range s.Labels {
			frags = append(frags, l.Name+"="+strconv.Quote(l.Value))
		}
		if got, ok := remote.Value(s.Name, frags...); !ok || got != s.Value {
			t.Errorf("remote %s%v = %v (present %v), local %v", s.Name, frags, got, ok, s.Value)
		}
		compared++
	}
	if compared < 20 {
		t.Fatalf("compared only %d series", compared)
	}
}

func TestFailedTransferRecorded(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Metrics: obs.NewRegistry()})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Metrics: obs.NewRegistry()})
	pf := publish(t, g, cern, "doomed.db", testbed.MakeData(10_000, 92), core.PublishOptions{})
	// The bytes vanish at the source (no MSS to restore them), so the
	// transfer itself fails after the catalog lookup succeeded.
	if err := os.Remove(filepath.Join(cern.DataDir(), "doomed.db")); err != nil {
		t.Fatal(err)
	}
	if err := anl.Get(pf.LFN); err == nil {
		t.Fatal("transfer of vanished file should fail")
	}
	hist := anl.TransferHistory()
	if len(hist) != 1 || !hist[0].Failed || hist[0].Error == "" {
		t.Fatalf("history = %+v", hist)
	}
	// One source, one step: the record carries the plan's first step.
	if hist[0].Attempts != 1 {
		t.Fatalf("record = %+v, want step 1", hist[0])
	}
	if ok, failed, bytes := transfers(t, anl); ok != 0 || failed != 1 || bytes != 0 {
		t.Fatalf("transfers = %v ok, %v failed, %v bytes; want 0, 1, 0", ok, failed, bytes)
	}
}

func TestAutoTunedDataMover(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Metrics: obs.NewRegistry()})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{AutoTuneBuffers: true, Metrics: obs.NewRegistry()})
	pf1 := publish(t, g, cern, "t1.db", testbed.MakeData(700_000, 110), core.PublishOptions{})
	pf2 := publish(t, g, cern, "t2.db", testbed.MakeData(700_000, 111), core.PublishOptions{})
	// First fetch triggers the negotiation; the second uses the cached
	// buffer. Both must land intact.
	if err := anl.Get(pf1.LFN); err != nil {
		t.Fatalf("first auto-tuned get: %v", err)
	}
	if err := anl.Get(pf2.LFN); err != nil {
		t.Fatalf("second auto-tuned get: %v", err)
	}
	if ok, failed, _ := transfers(t, anl); ok != 2 || failed != 0 {
		t.Fatalf("transfers = %v ok, %v failed; want 2, 0", ok, failed)
	}
}

func TestWaitForFileTimesOut(t *testing.T) {
	g := newGrid(t)
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	start := time.Now()
	err := anl.WaitForFile("lfn://never/arrives", 50*time.Millisecond)
	if err == nil {
		t.Fatal("WaitForFile returned without the file")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
