package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
	"gdmp/internal/replica"
	"gdmp/internal/rpc"
)

// Replayed pull stages, in pull order. Their sum is what the outside
// view explains of one pull; gsi.handshake is timed on its own and is
// already inside both dial stages.
const (
	spanLookup    = "replica.lookup"
	spanHandshake = "gsi.handshake"
	spanRPCDial   = "rpc.dial"
	spanStageCall = "rpc.stage_call"
	spanFTPDial   = "gridftp.dial"
	spanGet       = "gridftp.get"
	spanCRC       = "gridftp.crc"
	spanParity    = "parity.encode"
	spanJournal   = "journal.append"
)

var pullStages = []string{spanLookup, spanRPCDial, spanStageCall, spanFTPDial, spanGet, spanCRC, spanParity, spanJournal}

// span is one timed call into a layer, recorded by the benchmark around
// its own call.
type span struct {
	name string
	dur  time.Duration
}

// replayer re-runs a finished pull stage by stage against the same
// source through the modules' public functions, with the same site
// settings (parallelism, parity geometry, journal fsync), into a scratch
// directory.
type replayer struct {
	cred  *gsi.Credential
	roots []*gsi.Certificate
	dial  func(network, addr string) (net.Conn, error)
	rc    *replica.Client
	dir   string
	jr    *journal.Journal
	spans []span
	n     int   // pulls replayed
	bytes int64 // payload bytes the replays fetched from sources
}

func newReplayer(b *benchGrid, dial func(network, addr string) (net.Conn, error)) (*replayer, error) {
	cred, err := b.g.CA.Issue("bench/replay", time.Hour)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rc, err := replica.Dial(b.g.CatalogAddr, cred, b.g.Roots, rpc.WithDialer(dial))
	if err != nil {
		return nil, fmt.Errorf("replay catalog dial: %w", err)
	}
	jr, _, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{Registry: obs.NewRegistry()})
	if err != nil {
		rc.Close()
		return nil, err
	}
	return &replayer{cred: cred, roots: b.g.Roots, dial: dial, rc: rc, dir: dir, jr: jr}, nil
}

func (r *replayer) close() {
	r.rc.Close()
	r.jr.Close()
}

// timed runs fn as one span.
func (r *replayer) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	r.spans = append(r.spans, span{name: name, dur: d})
	if err != nil {
		return d, fmt.Errorf("replay %s: %w", name, err)
	}
	return d, nil
}

// replay re-runs the pull of lfn from src and returns the summed duration
// of the pull stages.
func (r *replayer) replay(ctx context.Context, lfn string, src *core.Site) (time.Duration, error) {
	r.n++
	var total time.Duration
	add := func(d time.Duration, err error) error {
		total += d
		return err
	}

	var entry *replica.LogicalFile
	var remotePath string
	if err := add(r.timed(spanLookup, func() error {
		var err error
		if entry, err = r.rc.Lookup(ctx, lfn); err != nil {
			return err
		}
		locs, err := r.rc.Locations(ctx, lfn)
		if err != nil {
			return err
		}
		for _, l := range locs {
			if p, perr := core.ParsePFN(l); perr == nil && p.Addr == src.DataAddr() {
				remotePath = p.Path
			}
		}
		if remotePath == "" {
			return fmt.Errorf("no location of %s at %s", lfn, src.Name())
		}
		return nil
	})); err != nil {
		return 0, err
	}

	if _, err := r.timed(spanHandshake, func() error {
		conn, err := r.dial("tcp", src.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		_, err = gsi.Handshake(conn, r.cred, r.roots, true)
		return err
	}); err != nil {
		return 0, err
	}

	var cl *rpc.Client
	if err := add(r.timed(spanRPCDial, func() error {
		var err error
		cl, err = rpc.DialContext(ctx, src.Addr(), r.cred, r.roots, rpc.WithDialer(r.dial))
		return err
	})); err != nil {
		return 0, err
	}
	err := add(r.timed(spanStageCall, func() error {
		var e rpc.Encoder
		e.String(lfn)
		_, err := cl.CallContext(ctx, core.MethodStage, &e)
		return err
	}))
	cl.Close()
	if err != nil {
		return 0, err
	}

	var fc *gridftp.Client
	if err := add(r.timed(spanFTPDial, func() error {
		var err error
		fc, err = gridftp.DialContext(ctx, src.DataAddr(), r.cred, r.roots,
			gridftp.WithParallelism(2), gridftp.WithDialFunc(r.dial), gridftp.WithMetrics(obs.NewRegistry()))
		return err
	})); err != nil {
		return 0, err
	}
	local := filepath.Join(r.dir, "pull.dat")
	defer os.Remove(local)
	defer os.Remove(parity.SidecarPath(local))
	var size int64
	err = add(r.timed(spanGet, func() error {
		st, err := fc.GetFile(remotePath, local)
		size = st.Bytes
		return err
	}))
	fc.Close()
	if err != nil {
		return 0, err
	}
	r.bytes += size

	if err := add(r.timed(spanCRC, func() error {
		got, err := gridftp.CRC32File(local)
		if err != nil {
			return err
		}
		if want := entry.Attrs[replica.AttrCRC]; fmt.Sprintf("%08x", got) != want {
			return fmt.Errorf("crc %08x, catalog says %s", got, want)
		}
		return nil
	})); err != nil {
		return 0, err
	}
	if err := add(r.timed(spanParity, func() error {
		sc, err := parity.CreateFile(local, parityK, parityM)
		if err != nil {
			return err
		}
		_, err = sc.WriteFile(parity.SidecarPath(local))
		return err
	})); err != nil {
		return 0, err
	}
	rec := strings.Join([]string{"put", lfn, remotePath, fmt.Sprint(size), entry.Attrs[replica.AttrCRC]}, "\x00")
	if err := add(r.timed(spanJournal, func() error { return r.jr.Append([]byte(rec)) })); err != nil {
		return 0, err
	}
	return total, nil
}

// spanMs returns the durations in milliseconds of every span named name.
func (r *replayer) spanMs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
