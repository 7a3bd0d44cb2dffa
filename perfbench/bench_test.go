package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"gdmp/internal/core"
)

// The same seed must give identical inputs — file bytes, the Zipf trace
// and the publish schedule — and another seed different ones.
func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := inputs{seed: 42}, inputs{seed: 42}, inputs{seed: 43}
	for _, size := range []int{smallBytes, fanBytes} {
		for i := 0; i < 3; i++ {
			if !bytes.Equal(a.fileData(i, size), b.fileData(i, size)) {
				t.Fatalf("file %d of %d bytes differs between runs of one seed", i, size)
			}
			if bytes.Equal(a.fileData(i, size), other.fileData(i, size)) {
				t.Fatalf("file %d of %d bytes is the same under another seed", i, size)
			}
		}
	}
	if bytes.Equal(a.fileData(0, smallBytes), a.fileData(1, smallBytes)) {
		t.Fatal("two files of one run share their content")
	}

	ta, err := a.zipfTrace()
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := b.zipfTrace()
	to, _ := other.zipfTrace()
	if !reflect.DeepEqual(ta.Accesses, tb.Accesses) {
		t.Fatal("Zipf trace differs between runs of one seed")
	}
	if reflect.DeepEqual(ta.Accesses, to.Accesses) {
		t.Fatal("Zipf trace is the same under another seed")
	}

	for rung, rate := range fanRates {
		sa := a.schedule(rung, rate, 5*time.Second)
		if !reflect.DeepEqual(sa, b.schedule(rung, rate, 5*time.Second)) {
			t.Fatalf("rung %d schedule differs between runs of one seed", rung)
		}
		if reflect.DeepEqual(sa, other.schedule(rung, rate, 5*time.Second)) {
			t.Fatalf("rung %d schedule is the same under another seed", rung)
		}
		if want := int(rate * 5); len(sa) != want {
			t.Fatalf("rung %d: %d publishes, want %d", rung, len(sa), want)
		}
		for i := 1; i < len(sa); i++ {
			if sa[i] <= sa[i-1] {
				t.Fatalf("rung %d: publish %d is not after publish %d", rung, i, i-1)
			}
		}
	}
}

// One 4 KiB pull opens exactly five connections: the stage RPC, two
// GridFTP control sessions (transfer, then CRC verify) and two data
// channels. Three of them open with a GSI handshake; the catalog
// connection is the site's long-lived one and is not redialed.
var onePull = connCounts{connRPC: 1, connControl: 2, connData: 2, connCatalog: 0}

// getCounted pulls lfn at the i-th consumer, checks the replica and
// returns the connections that consumer opened for it.
func getCounted(t *testing.T, b *benchGrid, i int, lfn, rel string, sum digest) connCounts {
	t.Helper()
	before := b.dials[i].counts()
	if err := b.cons[i].Get(lfn); err != nil {
		t.Fatal(err)
	}
	got := b.dials[i].counts().minus(before)
	if err := checkReplica(b, b.cons[i], lfn, rel, sum); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSmallPullConnectionCounts(t *testing.T) {
	b, err := newBenchGrid(t.TempDir(), gridSpec{consumers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	r := &runner{in: inputs{seed: 1}}
	sum, err := r.writeInput(b, "conn/f.dat", 0, smallBytes)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := b.prod.Publish("conn/f.dat", core.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := getCounted(t, b, 0, pf.LFN, "conn/f.dat", sum)
	if got != onePull {
		t.Fatalf("connections per pull: %v, want %v", got, onePull)
	}
	if got.total() != 5 || got.authenticated() != 3 {
		t.Fatalf("%d connections, %d authenticated; want 5 and 3", got.total(), got.authenticated())
	}
}

// A zipf-cache miss can pull from the other consumer when it holds the
// file. Its stage RPC and control sessions still count as such, not as
// data channels.
func TestConsumerSourcedPullConnectionCounts(t *testing.T) {
	pool := int64(zipfPoolFiles * zipfFileBytes * (parityK + parityM + 1) / parityK)
	b, err := newBenchGrid(t.TempDir(), gridSpec{consumers: 2, poolBytes: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	r := &runner{in: inputs{seed: 1}}
	const rel = "conn/z.dat"
	sum, err := r.writeInput(b, rel, 0, zipfFileBytes)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := b.prod.Publish(rel, core.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := getCounted(t, b, 0, pf.LFN, rel, sum); got != onePull {
		t.Fatalf("connections of the pull from the producer: %v, want %v", got, onePull)
	}
	// With the producer's replica withdrawn, the first consumer is the
	// only source left.
	if err := b.prod.RemoveLocal(pf.LFN); err != nil {
		t.Fatal(err)
	}
	got := getCounted(t, b, 1, pf.LFN, rel, sum)
	if src := sourceOf(b, b.cons[1]); src != b.cons[0] {
		t.Fatalf("pulled from %s, want %s", src.Name(), b.cons[0].Name())
	}
	if got != onePull {
		t.Fatalf("connections of the pull from a consumer: %v, want %v", got, onePull)
	}
}

// tail reports the order statistic with exactly minBeyond samples above.
func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok=%v), want 90 at p90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:minBeyond]); ok {
		t.Fatal("tail of too few samples reported ok")
	}
}

// BENCHMARK.json must list the workloads and metrics the program runs
// and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var progWorkloads []string
	for _, w := range workloads {
		progWorkloads = append(progWorkloads, w.name)
	}
	for _, c := range []struct {
		what       string
		json, prog []string
	}{
		{"workloads", names(spec.Workloads), progWorkloads},
		{"end_to_end", names(spec.EndToEnd), e2eNames},
		{"per_layer", names(spec.PerLayer), layerNames},
	} {
		if !reflect.DeepEqual(c.json, c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %v, the program %v", c.what, c.json, c.prog)
		}
	}
}
