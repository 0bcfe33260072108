package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/appproto"
	"discover/internal/core"
	"discover/internal/experiments"
	"discover/internal/netsim"
	"discover/internal/portal"
	"discover/internal/server"
	"discover/internal/session"
	"discover/internal/wire"
)

// Collab workload settings. The rate is fixed well under saturation on a
// 2-core box (about a third of a core); NOTES.md records it.
const (
	collabDomains    = 4
	collabMembers    = 16 // ops-level member sessions per domain
	collabSlow       = 4  // of them never drained (the paper's §6.2 slow clients)
	collabRate       = 200
	collabPhaseDelay = 10 * time.Millisecond
	collabWarm       = 50
	collabMinSize    = 16
	collabMaxSize    = 4096
	idWidth          = 9 // "#" + 8 digits at the head of every broadcast
)

// collabMember is one ops-level session in the app's group.
type collabMember struct {
	dom    int
	sess   *session.Session
	slow   bool
	got    tracker
	remote bool
}

// collabLoad is the paper's central claim (§5.2.3): one publisher at an
// edge domain posts chat lines and whiteboard strokes open-loop; every
// update crosses the WAN once per remote domain and fans out there to
// the members' delivery queues and to an SSE receiver.
type collabLoad struct {
	o       options
	fed     *experiments.Federation
	as      *appproto.Session
	app     *appRunner
	members []*collabMember
	pub     *portal.Client
	pubSess *session.Session
	pubHC   *http.Client
	recv    *portal.Client
	recvHC  *http.Client
	sy      *system
	ck      checks
	rng     *rand.Rand

	// sample and update are a delivered broadcast and app update, kept
	// for the layer probes.
	sample, update *wire.Message

	rec      atomic.Pointer[recorder]
	reorders atomic.Int64 // arrivals, over all receivers, that overtook an earlier id

	mu       sync.Mutex
	nextID   int
	due      map[int]time.Time
	recvGot  tracker // the SSE receiver's deliveries
	measured int     // first id whose latency is recorded
}

func (c *collabLoad) sys() *system { return c.sy }

func (c *collabLoad) paths() (string, string) { return "deliver", "enqueue_lag" }

// probeInput is the host's fan-out as the probes use it: a delivered
// broadcast, and the app's status command and update on the app protocol.
// The host group holds its own members plus one relay per remote domain.
func (c *collabLoad) probeInput() probeInput {
	cmd := wire.NewCommand(c.as.AppID(), "", "status")
	upd := c.update
	if upd == nil {
		upd = wire.NewUpdate(c.as.AppID(), 1)
	}
	return probeInput{cmd: cmd, resp: upd, msg: c.sample,
		members: len(c.members)/collabDomains + collabDomains - 1}
}

func (c *collabLoad) setup(o options) error {
	*c = collabLoad{o: o, rng: rand.New(rand.NewSource(o.seed)), due: map[int]time.Time{}}
	doms := []struct {
		Name string
		Site netsim.Site
	}{experiments.DomainAt("host", "s0")}
	for i := 1; i < collabDomains; i++ {
		doms = append(doms, experiments.DomainAt(fmt.Sprintf("e%d", i), netsim.Site(fmt.Sprintf("s%d", i))))
	}
	fed, err := experiments.NewFederation(experiments.FederationConfig{
		Mode: core.Push, Domains: doms,
		HeartbeatEvery: time.Hour, OfferTTL: time.Hour, DiscoverEvery: time.Hour,
	})
	if err != nil {
		return err
	}
	c.fed = fed
	c.sy = &system{net: fed.Net, portal: fed.Domains[1].BaseURL()}
	for _, d := range fed.Domains {
		c.sy.servers = append(c.sy.servers, d.Srv)
		c.sy.orbs = append(c.sy.orbs, d.ORB)
		c.sy.subs = append(c.sy.subs, d.Sub)
		d.Srv.Auth().SetUserSecret("alice", "pw")
		d.Srv.Auth().SetUserSecret("bob", "pw")
	}
	c.as, err = experiments.AttachApp(fed.Domains[0], "collab-app", 1,
		appproto.WithPhaseDelay(collabPhaseDelay), appproto.WithUpdateEvery(1))
	if err != nil {
		return err
	}
	c.app = startApp(c.as)
	appID := c.as.AppID()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The publisher logs in at e1 and the SSE receiver at e2; members on
	// every other domain than e1 are remote to the publisher.
	pubDom, recvDom := fed.Domains[1], fed.Domains[2]
	members := collabMembers
	if o.short {
		members = 4
	}
	for di, d := range fed.Domains {
		slow := map[int]bool{}
		for _, i := range c.rng.Perm(members)[:members*collabSlow/collabMembers] {
			slow[i] = true
		}
		for i := 0; i < members; i++ {
			sess, err := d.Srv.Login(ctx, "bob", "pw")
			if err != nil {
				return err
			}
			if _, err := d.Srv.ConnectApp(ctx, sess, appID); err != nil {
				return fmt.Errorf("member connect at %s: %w", d.Name, err)
			}
			c.members = append(c.members, &collabMember{dom: di, sess: sess, slow: slow[i], remote: d != pubDom})
		}
	}
	c.pubHC = fed.HTTPClientFrom(pubDom.Site)
	c.pub = portal.New(pubDom.BaseURL(), portal.WithHTTPClient(c.pubHC))
	if err := c.pub.Login(ctx, "alice", "pw"); err != nil {
		return err
	}
	if _, err := c.pub.ConnectApp(ctx, appID); err != nil {
		return err
	}
	var ok bool
	if c.pubSess, ok = pubDom.Srv.Sessions().Peek(c.pub.ClientID()); !ok {
		return fmt.Errorf("publisher session missing at %s", pubDom.Name)
	}
	c.recvHC = fed.HTTPClientFrom(recvDom.Site)
	c.recv = portal.New(recvDom.BaseURL(), portal.WithHTTPClient(c.recvHC))
	if err := c.recv.Login(ctx, "bob", "pw"); err != nil {
		return err
	}
	if _, err := c.recv.ConnectApp(ctx, appID); err != nil {
		return err
	}
	c.recv.StreamEvents(c.onEvent)

	// Warm up until a broadcast reaches everyone.
	warm := collabWarm
	if o.short {
		warm = 10
	}
	if err := c.publish(time.Time{}, warm, nil); err != nil {
		return err
	}
	c.quiesce()
	if c.ck.failed > 0 {
		return fmt.Errorf("warm-up: %v", c.ck.problems)
	}
	c.ck = checks{}
	c.app.take()
	return nil
}

// payload builds broadcast id's seeded body: the id, then filler up to a
// log-uniform size between collabMinSize and collabMaxSize bytes.
func (c *collabLoad) payload(id int) (chat bool, body []byte) {
	size := int(collabMinSize * math.Pow(2, c.rng.Float64()*math.Log2(collabMaxSize/collabMinSize)))
	body = make([]byte, size)
	copy(body, fmt.Sprintf("#%08d", id))
	for i := idWidth; i < size; i++ {
		body[i] = 'a' + byte(c.rng.Intn(26))
	}
	return c.rng.Intn(2) == 0, body
}

// broadcastID extracts the benchmark's id from a delivered message, or -1
// for anything that is not one of its broadcasts (app updates, joins).
func broadcastID(m *wire.Message) int {
	var b []byte
	switch m.Kind {
	case wire.KindChat:
		b = []byte(m.Text)
	case wire.KindWhiteboard:
		b = m.Data
	default:
		return -1
	}
	if len(b) < idWidth || b[0] != '#' {
		return -1
	}
	id, err := strconv.Atoi(string(b[1:idWidth]))
	if err != nil {
		return -1
	}
	return id
}

// tracker accounts one receiver's broadcasts: every id exactly once.
// Arrival order is counted, not gated: the program runs each relay
// invocation on its own goroutine at the receiving domain, so two
// broadcasts relayed back to back can be applied in either order there
// (NOTES.md).
type tracker struct {
	next  int          // every id below next has arrived
	ahead map[int]bool // ids at or above next that have arrived
}

// accept records id's arrival and reports whether it was its first.
func (c *collabLoad) accept(who string, t *tracker, id int) bool {
	if id < t.next || t.ahead[id] {
		c.ck.fail("%s: broadcast %d delivered twice", who, id)
		return false
	}
	if id > t.next {
		if t.ahead == nil {
			t.ahead = map[int]bool{}
		}
		t.ahead[id] = true
		c.reorders.Add(1)
		return true
	}
	t.next++
	for t.ahead[t.next] {
		delete(t.ahead, t.next)
		t.next++
	}
	return true
}

// settle fails every id below last that never arrived.
func (c *collabLoad) settle(who string, t *tracker, last int) {
	for id := t.next; id < last; id++ {
		if !t.ahead[id] {
			c.ck.fail("%s: broadcast %d never arrived", who, id)
		}
	}
	t.next, t.ahead = last, nil
}

func (c *collabLoad) dueOf(id int) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.due[id]
	return t, ok && id >= c.measured
}

// onEvent is the SSE receiver's delivery callback.
func (c *collabLoad) onEvent(m *wire.Message) {
	now := time.Now()
	id := broadcastID(m)
	if id < 0 {
		return
	}
	c.mu.Lock()
	if c.o.fault == faultDropBroadcast && c.rec.Load() != nil && id == c.measured+3 {
		c.mu.Unlock()
		return
	}
	fresh := c.accept("sse receiver", &c.recvGot, id)
	c.mu.Unlock()
	if due, ok := c.dueOf(id); ok && fresh {
		if rec := c.rec.Load(); rec != nil {
			rec.observe("deliver", now.Sub(due))
		}
	}
}

// drain empties every drained member's queue (and the publisher's own),
// checking order and recording the enqueue lag on remote domains.
func (c *collabLoad) drain(rec *recorder) {
	var tr *tracer
	if rec != nil {
		tr = rec.tr
	}
	id := tr.start(tr.op(), -1, "session", "Queue.DrainEntries")
	defer tr.end(id)
	c.pubSess.Buffer.DrainEntries(0)
	for i, m := range c.members {
		if m.slow {
			continue
		}
		ents, _ := m.sess.Buffer.DrainEntries(0)
		for _, e := range ents {
			bid := broadcastID(e.Msg)
			if e.Msg.Kind == wire.KindUpdate {
				c.update = e.Msg
			}
			if bid < 0 {
				continue
			}
			if bid%64 == 0 {
				c.sample = e.Msg
			}
			if !c.accept(fmt.Sprintf("member %d@%d", i, m.dom), &m.got, bid) {
				continue
			}
			if due, ok := c.dueOf(bid); ok && m.remote && rec != nil {
				rec.observe("enqueue_lag", e.At.Sub(due))
			}
		}
	}
}

// publish sends broadcasts open-loop at collabRate — n of them, or until
// deadline when n is 0 — timing each from the moment it was due, and
// drains the members between sends.
func (c *collabLoad) publish(deadline time.Time, n int, rec *recorder) error {
	period := time.Second / collabRate
	start := time.Now()
	var tr *tracer
	if rec != nil {
		tr = rec.tr
	}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if (n > 0 && k >= n) || (n == 0 && !due.Before(deadline)) {
			return nil
		}
		c.drain(rec)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if rec != nil {
			rec.observe("gen_late", time.Since(due))
		}
		c.mu.Lock()
		id := c.nextID
		c.nextID++
		c.due[id] = due
		c.mu.Unlock()
		chat, body := c.payload(id)
		op := tr.op()
		root := tr.start(op, -1, "bench", "broadcast")
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		var err error
		if chat {
			sp := tr.start(op, root, "server", "portal.Chat")
			err = c.pub.Chat(ctx, string(body))
			tr.end(sp)
		} else {
			sp := tr.start(op, root, "server", "portal.Whiteboard")
			err = c.pub.Whiteboard(ctx, body)
			tr.end(sp)
		}
		cancel()
		tr.end(root)
		c.ck.attempt()
		if rec != nil {
			rec.addOps(1)
		}
		if err != nil {
			c.ck.fail("publish %d: %v", id, err)
		}
	}
}

func (c *collabLoad) window(d time.Duration, rec *recorder) error {
	c.mu.Lock()
	c.measured = c.nextID
	c.mu.Unlock()
	c.app.tr.Store(rec.tr)
	c.rec.Store(rec)
	reorders := c.reorders.Load()
	err := c.publish(time.Now().Add(d), 0, rec)
	c.app.tr.Store(nil)
	if err != nil {
		return err
	}
	// The receiver's latencies land during quiesce; the recorder stays
	// attached until then.
	c.quiesce()
	c.rec.Store(nil)
	rec.tally("reordered", float64(c.reorders.Load()-reorders))
	return recordPhases(rec, []*appRunner{c.app})
}

// quiesce waits until the SSE receiver and every drained member have seen
// the last broadcast; whatever is still missing then fails the run.
func (c *collabLoad) quiesce() {
	c.mu.Lock()
	last := c.nextID
	c.mu.Unlock()
	done := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.recvGot.next < last {
			return false
		}
		for _, m := range c.members {
			if !m.slow && m.got.next < last {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(opTimeout)
	for !done() && time.Now().Before(deadline) {
		c.drain(c.rec.Load())
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle("sse receiver", &c.recvGot, last)
	for i, m := range c.members {
		if !m.slow {
			c.settle(fmt.Sprintf("member %d@%d", i, m.dom), &m.got, last)
		}
	}
}

// finish checks replica convergence through each domain's typed collab
// resource and records the settings.
func (c *collabLoad) finish(r *report) {
	quiet(c.sy)
	hc := &http.Client{Timeout: 10 * time.Second}
	var first string
	for di, d := range c.fed.Domains {
		var m *collabMember
		for _, mm := range c.members {
			if mm.dom == di {
				m = mm
				break
			}
		}
		var info server.CollabInfoResponse
		if err := getJSON(hc, d.BaseURL()+"/api/v1/session/"+url.PathEscape(m.sess.ClientID)+"/collab", &info); err != nil {
			c.ck.fail("collab info at %s: %v", d.Name, err)
			continue
		}
		if di == 0 {
			first = info.Log.Hash
		} else if info.Log.Hash != first {
			c.ck.fail("collab log hash at %s is %s, host has %s", d.Name, info.Log.Hash, first)
		}
	}
	var saturated int
	for _, m := range c.members {
		if dropped, _ := m.sess.Buffer.Stats(); m.slow && dropped > 0 {
			saturated++
		}
	}
	c.ck.into(r)
	r.Env["rate_per_s"] = strconv.Itoa(collabRate)
	r.Env["domains"] = strconv.Itoa(collabDomains)
	r.Env["members"] = fmt.Sprintf("%dx%d (%d slow each)", collabDomains, len(c.members)/collabDomains, collabSlow*len(c.members)/collabDomains/collabMembers)
	r.Env["phase_delay"] = collabPhaseDelay.String()
	r.Detail["slow_queues_full"] = metric{float64(saturated), "count"}
	r.Detail["reordered_deliveries"] = metric{float64(c.reorders.Load()), "count"}
}

func (c *collabLoad) teardown() {
	if c.recv != nil {
		c.recv.StopPump()
	}
	if c.app != nil {
		c.app.halt()
	}
	for _, hc := range []*http.Client{c.pubHC, c.recvHC} {
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
	if c.fed != nil {
		c.fed.Close()
	}
	if c.as != nil {
		c.as.Close()
	}
}
