package core

import (
	"testing"
	"testing/quick"

	"gdmp/internal/obs"
)

func TestPFNRoundTrip(t *testing.T) {
	p := PFN{Addr: "cern.ch:2811", Path: "data/run42.db"}
	s := p.String()
	if s != "gridftp://cern.ch:2811/data/run42.db" {
		t.Fatalf("String = %q", s)
	}
	parsed, err := ParsePFN(s)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != p {
		t.Fatalf("round trip = %+v", parsed)
	}
}

func TestParsePFNErrors(t *testing.T) {
	bad := []string{
		"",
		"http://cern.ch/x",
		"gridftp://",
		"gridftp://cern.ch:2811",   // no path
		"gridftp://noport/file.db", // no port
	}
	for _, s := range bad {
		if _, err := ParsePFN(s); err == nil {
			t.Errorf("ParsePFN(%q) accepted", s)
		}
	}
}

func TestPFNPropertyRoundTrip(t *testing.T) {
	f := func(host string, port uint16, pathSeg string) bool {
		clean := func(s string) string {
			out := make([]rune, 0, len(s))
			for _, r := range s {
				if r > 32 && r != '/' && r != ':' && r < 127 {
					out = append(out, r)
				}
			}
			if len(out) == 0 {
				return "x"
			}
			return string(out)
		}
		p := PFN{
			Addr: clean(host) + ":" + itoa(int(port)%65535+1),
			Path: clean(pathSeg),
		}
		parsed, err := ParsePFN(p.String())
		return err == nil && parsed == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestLocalCatalog(t *testing.T) {
	files := new(obs.Gauge)
	c := newLocalCatalog(files)
	if len(c.list()) != 0 {
		t.Fatal("new catalog not empty")
	}
	c.put(FileInfo{LFN: "b", Path: "b", Size: 2, State: StateDisk})
	c.put(FileInfo{LFN: "a", Path: "a", Size: 1, State: StateDisk})
	c.put(FileInfo{LFN: "a", Path: "a2", Size: 1, State: StateDisk}) // replaces
	if files.Value() != 2 {
		t.Fatalf("local files gauge = %d, want 2", files.Value())
	}
	list := c.list()
	if list[0].LFN != "a" || list[1].LFN != "b" {
		t.Fatalf("list not sorted: %v", list)
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("get(a) missed")
	}
	if err := c.setState("a", StateTape); err != nil {
		t.Fatal(err)
	}
	fi, _ := c.get("a")
	if fi.State != StateTape {
		t.Fatalf("state = %v", fi.State)
	}
	if err := c.setState("zzz", StateDisk); err == nil {
		t.Fatal("setState on missing entry accepted")
	}
	c.remove("a")
	if _, ok := c.get("a"); ok {
		t.Fatal("remove did not remove")
	}
	if files.Value() != 1 {
		t.Fatalf("local files gauge after remove = %d, want 1", files.Value())
	}
}
