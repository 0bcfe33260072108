package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"discover"
	"discover/internal/appproto"
	"discover/internal/experiments"
	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/session"
	"discover/internal/wire"
)

// Durable workload settings.
const (
	// durableOps is each client's fixed op count per cycle, so every
	// recovery replays a log of the same shape.
	durableOps        = 600
	durablePhaseDelay = time.Millisecond
	durableFifo       = 4096 // no client queue overflows within a cycle
	durableWarmOps    = 20
)

// durClient is one closed-loop writer with the state its writes should
// leave behind.
type durClient struct {
	*steerClient
	chats, strokes int
	lastSet        map[string]string // param -> last value acknowledged
}

// durable issues writes against one standalone durable domain, then
// crash-stops it and restarts it from its WAL. Each cycle runs on a fresh
// data directory with a fixed op count, so every recovery replays the
// same number of records.
type durable struct {
	o     options
	root  string // per-run directory for the cycles' WALs
	cycle int
	rng   *rand.Rand

	dom     *discover.Domain
	dir     string
	hsrv    *http.Server
	base    string
	as      []*appproto.Session
	apps    []*appRunner
	clients []*durClient
	live    bool // dom is up and must be closed
	sy      *system
	ck      checks
}

func (d *durable) sys() *system { return d.sy }

// cutsBlocks makes each cycle one block of the window.
func (d *durable) cutsBlocks() {}

func (d *durable) paths() (string, string) { return "write", "recovery" }

func (d *durable) probeInput() probeInput { return d.clients[0].probeInput() }

func (d *durable) setup(o options) error {
	if d.root == "" {
		d.root = filepath.Join(".bench_build", "durable", fmt.Sprintf("run-%d", os.Getpid()))
		d.rng = rand.New(rand.NewSource(o.seed))
	}
	d.o = o
	d.sy = &system{}
	return d.deploy(true)
}

// domainConfig is the durable domain's configuration, identical for the
// first start and every restart.
func (d *durable) domainConfig() discover.DomainConfig {
	return discover.DomainConfig{
		Name: "vault", DataDir: d.dir, FifoCapacity: durableFifo,
		SnapshotEvery: time.Hour, // recovery must replay the WAL
		Users:         map[string]string{"alice": "pw"},
		Logf:          func(string, ...any) {},
	}
}

// start brings the domain up on d.dir and serves its portal.
func (d *durable) start() (*discover.Domain, error) {
	dom, err := discover.StartDomain(d.domainConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dom.Close()
		return nil, err
	}
	d.hsrv = &http.Server{Handler: dom.Handler()}
	go d.hsrv.Serve(ln)
	d.base = "http://" + ln.Addr().String()
	return dom, nil
}

// deploy starts a fresh cycle: a new data directory, the domain, one app
// per client, and the clients logged in, connected and holding their
// app's steering lock.
func (d *durable) deploy(warm bool) error {
	d.cycle++
	d.dir = filepath.Join(d.root, fmt.Sprintf("c%d", d.cycle))
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	dom, err := d.start()
	if err != nil {
		return err
	}
	d.dom, d.live = dom, true
	d.sy.mu.Lock()
	d.sy.servers = []*server.Server{dom.Server}
	d.sy.mu.Unlock()
	d.sy.portal = d.base
	ed := &experiments.Domain{Name: "vault", Srv: dom.Server}
	d.as, d.apps, d.clients = nil, nil, nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		as, err := experiments.AttachApp(ed, fmt.Sprintf("vault-%d", i), 1,
			appproto.WithPhaseDelay(durablePhaseDelay), appproto.WithUpdateEvery(1<<30))
		if err != nil {
			return err
		}
		d.as = append(d.as, as)
		d.apps = append(d.apps, startApp(as))
		c := &durClient{
			steerClient: newSteerClient(fmt.Sprintf("writer%d", i), &http.Client{Transport: &http.Transport{}},
				d.base, d.rng.Int63()),
			lastSet: map[string]string{},
		}
		if err := c.join(ctx, "alice", as.AppID()); err != nil {
			return err
		}
		if err := c.learnParams(ctx); err != nil {
			return err
		}
		d.clients = append(d.clients, c)
	}
	if warm {
		n := durableWarmOps
		if d.o.short {
			n = 5
		}
		var ck checks
		for _, c := range d.clients {
			for i := 0; i < n; i++ {
				d.writeOnce(c, &ck, nil)
			}
		}
		if ck.failed > 0 {
			return fmt.Errorf("warm-up: %v", ck.problems)
		}
	}
	return nil
}

// writeOnce issues one seeded write: set_param (timed to its response),
// a lock release and re-acquire (two acknowledged calls), a chat line or
// a whiteboard stroke.
func (d *durable) writeOnce(c *durClient, ck *checks, rec *recorder) {
	var tr *tracer
	if rec != nil {
		tr = rec.tr
	}
	timed := func(name string, f func(ctx context.Context, op uint64, root int) error) {
		op := tr.op()
		root := tr.start(op, -1, "bench", "write "+name)
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		t0 := time.Now()
		err := f(ctx, op, root)
		lat := time.Since(t0)
		cancel()
		tr.end(root)
		ck.attempt()
		if err != nil {
			ck.fail("%s %s: %v", c.name, name, err)
		}
		if rec != nil {
			rec.observe("write", lat)
			rec.addOps(1)
		}
	}
	x := c.rng.Float64()
	switch {
	case x < 0.25:
		op := c.nextSteerOp(1)
		timed("set_param", func(ctx context.Context, id uint64, root int) error {
			resp, err := c.command(ctx, tr, id, root, op.name, op.params)
			if err != nil {
				return err
			}
			if msg := c.check(op, resp); msg != "" {
				return fmt.Errorf("%s", msg)
			}
			c.lastSet[op.param] = op.params["value"]
			if d.o.fault == faultWrongParam {
				c.lastSet[op.param] += "1"
			}
			c.last = resp
			return nil
		})
	case x < 0.5:
		if rec != nil {
			rec.tally("lock_ops", 2)
		}
		timed("lock release", func(ctx context.Context, id uint64, root int) error {
			sp := tr.start(id, root, "lockmgr", "portal.ReleaseLock")
			defer tr.end(sp)
			return c.pc.ReleaseLock(ctx)
		})
		timed("lock acquire", func(ctx context.Context, id uint64, root int) error {
			sp := tr.start(id, root, "lockmgr", "portal.AcquireLock")
			granted, holder, err := c.pc.AcquireLock(ctx)
			tr.end(sp)
			if err == nil && !granted {
				err = fmt.Errorf("not granted, holder %q", holder)
			}
			return err
		})
	default:
		chat := x < 0.75
		size := 16 << c.rng.Intn(7) // 16 B .. 1 KiB
		body := make([]byte, size)
		for i := range body {
			body[i] = 'a' + byte(c.rng.Intn(26))
		}
		name := map[bool]string{true: "chat", false: "whiteboard"}[chat]
		timed(name, func(ctx context.Context, id uint64, root int) error {
			sp := tr.start(id, root, "collab", "portal."+name)
			defer tr.end(sp)
			if chat {
				if err := c.pc.Chat(ctx, string(body)); err != nil {
					return err
				}
				c.chats++
				return nil
			}
			if err := c.pc.Whiteboard(ctx, body); err != nil {
				return err
			}
			c.strokes++
			return nil
		})
	}
}

func (d *durable) window(dur time.Duration, rec *recorder) error {
	// Each cycle ends by deploying the next one, so a domain is always up
	// between windows (the trace route is read from it).
	deadline := time.Now().Add(dur)
	for {
		if err := d.runCycle(rec); err != nil {
			return err
		}
		if err := rec.exclude(func() error { return d.deploy(false) }); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// expectation is what one client's state must look like after recovery.
type expectation struct {
	client   string
	app      string
	lastSeq  uint64 // the delivery queue's last sequence number
	drained  uint64
	commands int
	chats    int
	strokes  int
	lastSet  map[string]string
}

// runCycle drives the fixed op count, crash-stops the domain, restarts it
// from disk, times the recovery and checks the recovered state.
func (d *durable) runCycle(rec *recorder) error {
	ops := durableOps
	if d.o.short {
		ops = 40
	}
	for _, a := range d.apps {
		a.tr.Store(rec.tr)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *durClient) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				d.writeOnce(c, &d.ck, rec)
			}
		}(c)
	}
	wg.Wait()
	rec.addBusy(time.Since(t0))
	for _, a := range d.apps {
		a.tr.Store(nil)
		a.halt()
	}
	if err := recordPhases(rec, d.apps); err != nil {
		return err
	}

	// Capture what recovery must reproduce, then crash.
	var want []expectation
	for _, c := range d.clients {
		sess, ok := d.dom.Server.Sessions().Peek(c.pc.ClientID())
		if !ok {
			return fmt.Errorf("%s: session missing before crash", c.name)
		}
		want = append(want, expectation{
			client: c.pc.ClientID(), app: c.app, lastSeq: sess.Buffer.LastSeq(), drained: c.drained,
			commands: c.commands, chats: c.chats, strokes: c.strokes, lastSet: c.lastSet,
		})
	}
	d.sy.retire(d.dom.Server)
	d.sy.mu.Lock()
	d.sy.servers = nil
	d.sy.mu.Unlock()
	op := rec.tr.op()
	sp := rec.tr.start(op, -1, "storage", "CrashStop")
	d.dom.Server.CrashStop()
	d.hsrv.Close()
	for _, as := range d.as {
		as.Close()
	}
	for _, c := range d.clients {
		c.hc.CloseIdleConnections()
	}
	rec.tr.end(sp)

	// Restart from disk: the domain serves again once a login succeeds
	// and a client's stream resumes.
	sp = rec.tr.start(op, -1, "storage", "restart")
	t1 := time.Now()
	dom, err := d.start()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	d.dom, d.live = dom, true
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	loginErr := portal.New(d.base, portal.WithHTTPClient(hc)).Login(ctx, "alice", "pw")
	streams := make([]*sseStream, len(want))
	var streamErr error
	for i, w := range want {
		if streams[i], streamErr = openStream(ctx, hc, d.base, w.client, w.drained); streamErr != nil {
			break
		}
	}
	recovery := time.Since(t1)
	rec.tr.end(sp)
	rec.observe("recovery", recovery)
	defer rec.cut()
	for _, s := range streams {
		if s != nil {
			defer s.close()
		}
	}
	if loginErr != nil || streamErr != nil {
		d.ck.fail("cycle %d: recovered domain not serving: login %v, stream %v", d.cycle, loginErr, streamErr)
		return rec.exclude(func() error { d.close(); return nil })
	}
	return rec.exclude(func() error {
		for i, w := range want {
			d.verify(w, streams[i])
		}
		d.close()
		return os.RemoveAll(d.dir)
	})
}

// verify checks one client's recovered state: lock holder, interaction
// archive, last parameter value, collab log counts, and a resumed stream
// that splices every event past the client's last drained one.
func (d *durable) verify(w expectation, st *sseStream) {
	srv := d.dom.Server
	fail := func(format string, args ...any) {
		d.ck.fail("cycle %d %s: %s", d.cycle, w.client, fmt.Sprintf(format, args...))
	}
	if holder, held := srv.Locks().Holder(w.app); !held || holder != w.client {
		fail("lock holder %q (held %v) after recovery", holder, held)
	}
	log := srv.Archive().InteractionLog(w.app).Since(0)
	if len(log) != 2*w.commands {
		fail("interaction log has %d entries, want %d commands and their responses", len(log), 2*w.commands)
	}
	got := map[string]string{}
	for _, e := range log {
		if e.Msg.Kind == wire.KindCommand && e.Msg.Op == "set_param" {
			name, _ := e.Msg.Get("name")
			got[name], _ = e.Msg.Get("value")
		}
	}
	for p, v := range w.lastSet {
		if got[p] != v {
			fail("last set_param %s recovered as %q, acknowledged %q", p, got[p], v)
		}
	}
	var info server.CollabInfoResponse
	if err := getJSON(&http.Client{Timeout: opTimeout}, d.base+"/api/v1/session/"+url.PathEscape(w.client)+"/collab", &info); err != nil {
		fail("collab info: %v", err)
	} else if info.Log.Chats != w.chats || info.Log.Strokes != w.strokes {
		fail("collab log has %d chats and %d strokes, want %d and %d", info.Log.Chats, info.Log.Strokes, w.chats, w.strokes)
	}
	for next := w.drained + 1; next <= w.lastSeq; next++ {
		id, m, err := st.read()
		switch {
		case err != nil:
			fail("resumed stream ended before event %d: %v", next, err)
			return
		case m.Op == session.LostEvent:
			fail("resumed stream reports %s lost events after %d", m.Text, next-1)
			return
		case id != next:
			fail("resumed stream delivered event %d, want %d", id, next)
			return
		}
	}
}

func (d *durable) finish(r *report) {
	d.ck.into(r)
	ops := durableOps
	if d.o.short {
		ops = 40
	}
	r.Env["cycle_ops"] = fmt.Sprintf("%dx%d", len(d.clients), ops)
	r.Env["cycles"] = strconv.Itoa(d.cycle - 1)
	r.Env["phase_delay"] = durablePhaseDelay.String()
}

// close shuts the live domain down gracefully, with its apps.
func (d *durable) close() {
	if !d.live {
		return
	}
	d.live = false
	for _, a := range d.apps {
		a.halt()
	}
	d.hsrv.Close()
	d.dom.Close()
	for _, as := range d.as {
		as.Close()
	}
	for _, c := range d.clients {
		c.hc.CloseIdleConnections()
	}
}

func (d *durable) teardown() {
	d.close()
	os.RemoveAll(d.root)
}

// sseStream reads one session's event stream frame by frame.
type sseStream struct {
	resp *http.Response
	br   *bufio.Reader
}

// openStream resumes clientID's stream after event lastID.
func openStream(ctx context.Context, hc *http.Client, base, clientID string, lastID uint64) (*sseStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/session/"+url.PathEscape(clientID)+"/stream", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("stream: %s", resp.Status)
	}
	return &sseStream{resp: resp, br: bufio.NewReader(resp.Body)}, nil
}

// read returns the next identified event, skipping heartbeat comments.
func (s *sseStream) read() (uint64, *wire.Message, error) {
	var id uint64
	var data []byte
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return 0, nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "" && data != nil:
			var m wire.Message
			if err := json.Unmarshal(data, &m); err != nil {
				return 0, nil, err
			}
			return id, &m, nil
		case strings.HasPrefix(line, "id:"):
			id, _ = strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(line[5:])...)
		}
	}
}

func (s *sseStream) close() { s.resp.Body.Close() }
