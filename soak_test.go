// Soak test: a five-site grid under concurrent production and replication
// load, validating that the full stack (catalog, notifications, transfers,
// staging, status accounting) stays consistent under contention.
package gdmp_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

func TestProductionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// One producer with an MSS, four auto-replicating consumers.
	producer, err := g.AddSite("cern.ch", testbed.SiteOptions{
		WithMSS:     true,
		MSSCapacity: 1 << 30,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	consumers := make([]*core.Site, 4)
	for i := range consumers {
		consumers[i], err = g.AddSite(fmt.Sprintf("site%d.org", i), testbed.SiteOptions{
			AutoReplicate: true,
			Parallelism:   2,
			Metrics:       obs.NewRegistry(), // transfer totals are read per site
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := consumers[i].SubscribeTo(producer.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	// Production: several goroutines publish files concurrently, as a
	// detector farm's parallel writers would.
	const (
		writers       = 4
		filesPerWrite = 6
		fileSize      = 100_000
	)
	var wg sync.WaitGroup
	lfns := make(chan string, writers*filesPerWrite)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < filesPerWrite; i++ {
				rel := fmt.Sprintf("run%d/file%02d.db", w, i)
				data := testbed.MakeData(fileSize, int64(w*100+i))
				if _, err := g.WriteSiteFile("cern.ch", rel, data); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				pf, err := producer.Publish(rel, core.PublishOptions{Collection: "soak"})
				if err != nil {
					t.Errorf("publish %s: %v", rel, err)
					return
				}
				lfns <- pf.LFN
			}
		}(w)
	}
	wg.Wait()
	close(lfns)
	var all []string
	for lfn := range lfns {
		all = append(all, lfn)
	}
	if len(all) != writers*filesPerWrite {
		t.Fatalf("published %d files", len(all))
	}

	// Every consumer converges on the full set.
	for _, c := range consumers {
		for _, lfn := range all {
			if err := c.WaitForFile(lfn, 60*time.Second); err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
		}
	}

	// Catalog invariants: every file has 5 replicas; the collection holds
	// everything; no consumer recorded a failed transfer. Local visibility
	// (WaitForFile) precedes the replica-catalog registration in
	// replicate(), so poll the count briefly.
	for _, lfn := range all {
		var locs []string
		for deadline := time.Now().Add(10 * time.Second); ; {
			locs, err = g.Catalog.Locations(lfn)
			if err != nil {
				t.Fatal(err)
			}
			if len(locs) == 5 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if len(locs) != 5 {
			t.Fatalf("%s has %d replicas", lfn, len(locs))
		}
	}
	members, err := g.Catalog.ListCollection("soak")
	if err != nil || len(members) != len(all) {
		t.Fatalf("collection has %d members, %v", len(members), err)
	}
	for _, c := range consumers {
		text := c.Metrics().Text()
		if failed := metricValue(text, `gdmp_site_transfers_total{outcome="error"}`); failed != 0 {
			t.Fatalf("%s: %v failed transfers", c.Name(), failed)
		}
		if ok := metricValue(text, `gdmp_site_transfers_total{outcome="ok"}`); ok != float64(len(all)) {
			t.Fatalf("%s: %v ok transfers, want %d", c.Name(), ok, len(all))
		}
	}

	// Spot-check content integrity on a few replicas.
	want := testbed.MakeData(fileSize, 0*100+0)
	for _, c := range consumers[:2] {
		got, err := os.ReadFile(filepath.Join(c.DataDir(), "run0", "file00.db"))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch: %v", c.Name(), err)
		}
	}
}
