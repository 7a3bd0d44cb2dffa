package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/core"
	"gdmp/internal/gridftp"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// realSiteDump drives one consumer site through everything `gdmp status`
// reports — a pull into its parity-protected disk pool, a crash and
// journal replay, a digest push and a locate, and a GridFTP read storm
// against its single bulk slot that trips the brownout — and returns its
// registry dump with the producer's data address.
func realSiteDump(t *testing.T) (text, producerFTP string) {
	t.Helper()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics:       reg,
		Durable:       true,
		WithMSS:       true,
		MSSCapacity:   64 << 20,
		ParityK:       4,
		ParityM:       2,
		ScrubInterval: 5 * time.Millisecond,
		Admission: admission.Config{
			BulkSlots:     1,
			BulkQueue:     1,
			BrownoutEnter: 0.5,
			BrownoutExit:  0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rel = "status/run1.db"
	if _, err := g.WriteSiteFile("cern.ch", rel, testbed.MakeData(1<<20, 3)); err != nil {
		t.Fatal(err)
	}
	pf, err := prod.Publish(rel, core.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if cons, err = g.RestartSite("anl.gov"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cons.PushDigest(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cons.Locate(ctx, pf.LFN); err != nil {
		t.Fatal(err)
	}

	cred, err := g.CA.Issue("status-storm", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(dst string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cl, err := gridftp.Dial(cons.DataAddr(), cred, g.Roots); err == nil {
					_, _ = cl.GetFile(rel, dst) // busy rejections are the point
					cl.Close()
				}
			}
		}(filepath.Join(t.TempDir(), "storm"))
	}
	deadline := time.Now().Add(20 * time.Second)
	for reg.Counter("gdmp_brownout_entered_total", "").Value() == 0 ||
		reg.CounterVec("gdmp_brownout_deferred_total", "", "work").WithLabelValues("scrub").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the read storm never deferred a scrub tick under brownout")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	return reg.Text(), prod.DataAddr()
}

// render parses a dump and renders it as `gdmp status` lines.
func render(t *testing.T, text string) []string {
	t.Helper()
	ss, err := obs.ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	renderStatus(&b, "127.0.0.1:38000", ss)
	return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
}

// without drops every series whose name starts with one of the family
// prefixes: the dump a daemon predating those families serves.
func without(text string, families ...string) string {
	var kept []string
	for _, line := range strings.Split(text, "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		drop := false
		for _, f := range families {
			drop = drop || strings.HasPrefix(name, f)
		}
		if !drop {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// omit removes the lines starting with any prefix: the blocks a missing
// family must take out of the output, and nothing else.
func omit(lines []string, prefixes ...string) []string {
	var out []string
	for _, l := range lines {
		keep := true
		for _, p := range prefixes {
			keep = keep && !strings.HasPrefix(l, p)
		}
		if keep {
			out = append(out, l)
		}
	}
	return out
}

func TestRenderStatus(t *testing.T) {
	text, producerFTP := realSiteDump(t)
	full := render(t, text)
	t.Logf("gdmp status:\n%s", strings.Join(full, "\n"))

	blocks := []string{"journal: ", "pool: ", "parity: ", "rls: ", "peer health:", "  ", "admission: ", "brownout: "}
	for _, c := range []struct {
		name string
		dump string
		want []string
	}{
		// Every block `gdmp status` prints, from a real site's registry.
		{"every_block", text, full},
		// A daemon predating every optional family: site, transfer and
		// restart lines only.
		{"original_payload", without(text, "gdmp_journal_", "gdmp_pool_", "gdmp_parity_", "gdmp_repair_",
			"gdmp_rls_", "gdmp_health_", "gdmp_admission_", "gdmp_brownout_"), omit(full, blocks...)},
		{"without_journal", without(text, "gdmp_journal_"), omit(full, "journal: ")},
		{"without_pool", without(text, "gdmp_pool_"), omit(full, "pool: ")},
		{"without_parity", without(text, "gdmp_parity_", "gdmp_repair_"), omit(full, "parity: ")},
		{"without_rls", without(text, "gdmp_rls_"), omit(full, "rls: ")},
		{"without_health", without(text, "gdmp_health_"), omit(full, "peer health:", "  ")},
		{"without_admission", without(text, "gdmp_admission_", "gdmp_brownout_"), omit(full, "admission: ", "brownout: ")},
		// Series this client does not know are ignored.
		{"unknown_series", text + "# TYPE gdmp_future_widgets_total counter\n" +
			"gdmp_future_widgets_total{kind=\"x\"} 3\ngdmp_site_future_seconds_bucket{le=\"+Inf\"} 1\n", full},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := render(t, c.dump)
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Fatalf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
			if c.name != "every_block" {
				return
			}
			for _, want := range []string{
				"site anl.gov: 1 local files, 0 subscribers",
				fmt.Sprintf("transfers: 1 ok, 0 failed, %d bytes replicated, 0 pending", 1<<20),
				"last restart: 1 files restored, 0 pulls requeued, 0 notices requeued, 0 quarantined",
				"journal: ok",
				"pool: ", "parity: ", "rls: digest gen 1 (1 LFNs, 1 pushes)", "peer health:",
				"  " + producerFTP + ": breaker closed", "admission: ", "brownout: entered ",
			} {
				found := false
				for _, l := range got {
					found = found || strings.HasPrefix(l, want)
				}
				if !found {
					t.Errorf("no line starts with %q", want)
				}
			}
		})
	}
}

// TestRenderStatusPredatingSiteSeries renders a dump from a daemon older
// than the gdmp_site_info/local-files/transfer series and the breaker
// transition stamp: the site is named by its address and those counts
// read zero, with every other block unchanged.
func TestRenderStatusPredatingSiteSeries(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("gdmp_site_subscribers", "").Set(2)
	r.Gauge("gdmp_site_pending_queue_depth", "").Set(1)
	r.GaugeVec("gdmp_health_state", "", "peer").WithLabelValues("10.0.0.1:2811").Set(2)
	r.GaugeVec("gdmp_health_consecutive_failures", "", "peer").WithLabelValues("10.0.0.1:2811").Set(3)
	got := strings.Join(render(t, r.Text()), "\n")
	want := strings.Join([]string{
		"site 127.0.0.1:38000: 0 local files, 2 subscribers",
		"transfers: 0 ok, 0 failed, 0 bytes replicated, 1 pending",
		"peer health:",
		"  10.0.0.1:2811: breaker open, 3 consecutive failures",
	}, "\n")
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
