package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/obs"
	"gdmp/internal/retry"
	"gdmp/internal/testbed"
	"gdmp/internal/wan"
)

const producerName = "cern.ch"

var consumerNames = []string{"anl.gov", "fnal.gov"}

// The fanout-wan link: each subscriber sits behind its own shaped link
// of this rate and round-trip time.
const (
	wanRateMbps = 100
	wanRTT      = 20 * time.Millisecond
)

// Erasure-code geometry of every site's parity sidecars.
const (
	parityK = 8
	parityM = 2
)

// siteOptions mirrors the gdmpd flag defaults, plus a journaled state
// directory and 8+2 parity sidecars, so every pull stage does real work.
// Scrub, anti-entropy and digest loops stay off (their default).
func siteOptions(reg *obs.Registry, dial func(network, addr string) (net.Conn, error)) testbed.SiteOptions {
	pol := retry.DefaultPolicy()
	pol.Attempts = 3
	pol.BaseDelay = 50 * time.Millisecond
	pol.MaxDelay = 2 * time.Second
	return testbed.SiteOptions{
		Parallelism:            2,
		Retry:                  pol,
		TransferAttempts:       3,
		NotifyFailureThreshold: 3,
		PullWorkers:            4,
		ScrubRateBytes:         8 << 20,
		QuarantineMaxAge:       168 * time.Hour,
		QuarantineMaxCount:     1024,
		Durable:                true,
		ParityK:                parityK,
		ParityM:                parityM,
		Metrics:                reg,
		DialFunc:               dial,
	}
}

// connClass is what a consumer's outbound connection is for, told apart
// by its destination address.
type connClass int

const (
	connRPC connClass = iota
	connControl
	connData
	connCatalog
	numConnClasses
)

var connClassNames = [numConnClasses]string{"gdmp_rpc", "gridftp_control", "gridftp_data", "catalog"}

type connCounts [numConnClasses]int64

func (c connCounts) minus(o connCounts) connCounts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c connCounts) total() int64 {
	t := int64(0)
	for _, n := range c {
		t += n
	}
	return t
}

// authenticated counts the connections that open with a GSI handshake:
// every one except GridFTP data channels, which pair by session token.
func (c connCounts) authenticated() int64 { return c.total() - c[connData] }

func (c connCounts) String() string {
	return fmt.Sprintf("%s=%d %s=%d %s=%d %s=%d",
		connClassNames[0], c[0], connClassNames[1], c[1], connClassNames[2], c[2], connClassNames[3], c[3])
}

// dialCounter is composed into a consumer's DialFunc and counts every
// outbound connection by class. Destinations it has not been told about
// are GridFTP passive data ports.
type dialCounter struct {
	mu    sync.Mutex
	known map[string]connClass
	n     [numConnClasses]atomic.Int64
}

func newDialCounter() *dialCounter { return &dialCounter{known: map[string]connClass{}} }

func (d *dialCounter) learn(addr string, c connClass) {
	d.mu.Lock()
	d.known[addr] = c
	d.mu.Unlock()
}

func (d *dialCounter) dial(network, addr string) (net.Conn, error) {
	d.mu.Lock()
	c, ok := d.known[addr]
	d.mu.Unlock()
	if !ok {
		c = connData
	}
	d.n[c].Add(1)
	return net.Dial(network, addr)
}

func (d *dialCounter) counts() connCounts {
	var c connCounts
	for i := range c {
		c[i] = d.n[i].Load()
	}
	return c
}

// gridSpec is the topology one workload runs on.
type gridSpec struct {
	consumers int
	wan       bool  // each consumer behind its own shaped link
	subscribe bool  // consumers subscribe to the producer and auto-replicate
	poolBytes int64 // >0: consumers front an MSS with a disk pool this large
}

// benchGrid is one running grid: a producer and its consumers, each site
// with a private metrics registry.
type benchGrid struct {
	dir      string
	g        *testbed.Grid
	prod     *core.Site
	prodReg  *obs.Registry
	cons     []*core.Site
	consRegs []*obs.Registry
	dials    []*dialCounter
}

func newBenchGrid(dir string, spec gridSpec) (*benchGrid, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g, err := testbed.NewGrid(dir)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	b := &benchGrid{dir: dir, g: g, prodReg: obs.NewRegistry()}

	// Traffic between the producer and a subscriber crosses that
	// subscriber's link in both directions, notifications included.
	var linkMu sync.Mutex
	links := map[string]*wan.Link{}
	prodDial := func(network, addr string) (net.Conn, error) {
		linkMu.Lock()
		l := links[addr]
		linkMu.Unlock()
		if l != nil {
			return l.Dialer(nil)(network, addr)
		}
		return net.Dial(network, addr)
	}
	b.prod, err = g.AddSite(producerName, siteOptions(b.prodReg, prodDial))
	if err != nil {
		b.close()
		return nil, fmt.Errorf("producer: %w", err)
	}
	for i := 0; i < spec.consumers; i++ {
		dc := newDialCounter()
		dc.learn(g.CatalogAddr, connCatalog)
		dc.learn(b.prod.Addr(), connRPC)
		dc.learn(b.prod.DataAddr(), connControl)
		dial := dc.dial
		var link *wan.Link
		if spec.wan {
			link = wan.NewLink(wanRateMbps, wanRTT)
			dial = link.Dialer(dc.dial)
		}
		reg := obs.NewRegistry()
		opts := siteOptions(reg, dial)
		opts.AutoReplicate = spec.subscribe
		if spec.poolBytes > 0 {
			opts.WithMSS = true
			opts.MSSCapacity = spec.poolBytes
		}
		c, err := g.AddSite(consumerNames[i], opts)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("consumer %s: %w", consumerNames[i], err)
		}
		if link != nil {
			linkMu.Lock()
			links[c.Addr()] = link
			links[c.DataAddr()] = link
			linkMu.Unlock()
		}
		b.cons = append(b.cons, c)
		b.consRegs = append(b.consRegs, reg)
		b.dials = append(b.dials, dc)
	}
	// A consumer may pull from another consumer that holds the file, so
	// every dialer knows every consumer's RPC and control address too.
	for _, dc := range b.dials {
		for _, s := range b.cons {
			dc.learn(s.Addr(), connRPC)
			dc.learn(s.DataAddr(), connControl)
		}
	}
	if spec.subscribe {
		for _, c := range b.cons {
			if err := c.SubscribeTo(b.prod.Addr()); err != nil {
				b.close()
				return nil, fmt.Errorf("subscribe %s: %w", c.Name(), err)
			}
		}
	}
	return b, nil
}

func (b *benchGrid) close() {
	b.g.Close()
	os.RemoveAll(b.dir)
}

func (b *benchGrid) connCounts() connCounts {
	var c connCounts
	for _, d := range b.dials {
		n := d.counts()
		for i := range c {
			c[i] += n[i]
		}
	}
	return c
}
