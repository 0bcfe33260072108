package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/appproto"
	"discover/internal/portal"
	"discover/internal/wire"
)

// opTimeout bounds one client-visible operation; a slower one fails.
const opTimeout = 5 * time.Second

// checks accumulates the correctness verdict of a workload across its
// windows.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

func (c *checks) attempt() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// fail counts one failed operation (or missing/duplicate delivery).
func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checks) into(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Attempted += c.attempted
	r.Failed += c.failed
	r.Problems = append(r.Problems, c.problems...)
}

// ---------------------------------------------------------------------------
// The application side: the benchmark runs the app's phase loop itself so
// it can time each RunPhase.
// ---------------------------------------------------------------------------

// appRunner drives one attached application's compute/interaction phases.
type appRunner struct {
	sess *appproto.Session
	stop atomic.Bool
	done chan struct{}
	tr   atomic.Pointer[tracer]

	mu       sync.Mutex
	phases   []time.Duration
	commands int
	err      error
}

func startApp(sess *appproto.Session) *appRunner {
	a := &appRunner{sess: sess, done: make(chan struct{})}
	go a.loop()
	return a
}

func (a *appRunner) loop() {
	defer close(a.done)
	for !a.stop.Load() {
		tr := a.tr.Load()
		id := tr.start(tr.op(), -1, "appproto", "RunPhase")
		t0 := time.Now()
		n, err := a.sess.RunPhase()
		d := time.Since(t0)
		tr.end(id)
		a.mu.Lock()
		if err != nil {
			a.err = err
			a.mu.Unlock()
			return
		}
		a.phases = append(a.phases, d)
		a.commands += n
		a.mu.Unlock()
	}
}

// halt stops the loop after its current phase, without the orderly Bye a
// leaving application would send, and waits for it.
func (a *appRunner) halt() {
	a.stop.Store(true)
	<-a.done
}

// take returns and resets the phase timings and served-command count.
func (a *appRunner) take() ([]time.Duration, int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, n, err := a.phases, a.commands, a.err
	a.phases, a.commands = nil, 0
	return p, n, err
}

// recordPhases moves the apps' phase timings into a window's recorder.
func recordPhases(rec *recorder, apps []*appRunner) error {
	var phases, cmds int
	for _, a := range apps {
		p, n, err := a.take()
		if err != nil {
			return fmt.Errorf("app phase loop: %w", err)
		}
		for _, d := range p {
			rec.observe("phase", d)
		}
		phases += len(p)
		cmds += n
	}
	rec.tally("phases", float64(phases))
	rec.tally("commands", float64(cmds))
	return nil
}

// ---------------------------------------------------------------------------
// The client side: a portal client that matches responses by sequence.
// ---------------------------------------------------------------------------

// steerClient is one closed-loop portal user. It submits a command and
// long-polls on the same keep-alive connection until the response with
// that command's sequence number arrives. portal.Client.Do is not used:
// it registers its waiter only after Command returns, so a response that
// is delivered first goes to the event handler and the call times out
// (NOTES.md).
type steerClient struct {
	name     string
	hc       *http.Client
	pc       *portal.Client
	app      string
	params   map[string]float64 // last value this client set (or read at warm-up)
	drained  uint64             // messages taken from the delivery queue
	commands int                // commands accepted by the server
	last     *wire.Message      // the last response that passed its check
	rng      *rand.Rand
	fault    string // injected by the self-test
}

func newSteerClient(name string, hc *http.Client, base string, seed int64) *steerClient {
	return &steerClient{
		name: name, hc: hc, pc: portal.New(base, portal.WithHTTPClient(hc)),
		params: map[string]float64{}, rng: rand.New(rand.NewSource(seed)),
	}
}

// join logs in, connects to app and takes its steering lock.
func (c *steerClient) join(ctx context.Context, user, app string) error {
	if err := c.pc.Login(ctx, user, "pw"); err != nil {
		return fmt.Errorf("%s login: %w", c.name, err)
	}
	if _, err := c.pc.ConnectApp(ctx, app); err != nil {
		return fmt.Errorf("%s connect: %w", c.name, err)
	}
	c.app = app
	granted, holder, err := c.pc.AcquireLock(ctx)
	if err != nil || !granted {
		return fmt.Errorf("%s lock: granted=%v holder=%q err=%v", c.name, granted, holder, err)
	}
	return nil
}

// steerParams are the seismic kernel's steerable parameters and ranges.
var steerParams = []struct {
	name     string
	min, max float64
}{
	{"source_freq", 0.001, 0.4},
	{"source_amp", 0, 10},
	{"damping", 0, 0.2},
}

// learnParams reads every steerable parameter once, so later get_param
// answers can be checked against the last value set.
func (c *steerClient) learnParams(ctx context.Context) error {
	for _, p := range steerParams {
		resp, err := c.command(ctx, nil, 0, -1, "get_param", map[string]string{"name": p.name})
		if err != nil {
			return err
		}
		v, ok := resp.GetFloat("value")
		if !ok {
			return fmt.Errorf("%s: get_param %s without a value", c.name, p.name)
		}
		c.params[p.name] = v
	}
	return nil
}

// command submits op and waits for its matching response.
func (c *steerClient) command(ctx context.Context, tr *tracer, op uint64, parent int, name string, params map[string]string) (*wire.Message, error) {
	id := tr.start(op, parent, "server", "portal.Command")
	seq, err := c.pc.Command(ctx, name, params)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", c.name, name, err)
	}
	c.commands++
	for {
		id := tr.start(op, parent, "session", "portal.Poll")
		msgs, err := c.pc.Poll(ctx, 64, time.Second)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s poll for %s #%d: %w", c.name, name, seq, err)
		}
		c.drained += uint64(len(msgs))
		var found *wire.Message
		for _, m := range msgs {
			if (m.Kind == wire.KindResponse || m.Kind == wire.KindError) && m.Seq == seq {
				found = m
			}
		}
		if found != nil {
			return found, nil
		}
	}
}

// steerOp is one generated steering operation.
type steerOp struct {
	name   string
	param  string
	value  float64 // for set_param
	params map[string]string
}

// nextSteerOp draws the seeded op mix: half get_param, a fifth status,
// the rest set_param with a value on a grid inside the parameter's range.
func (c *steerClient) nextSteerOp(setShare float64) steerOp {
	p := steerParams[c.rng.Intn(len(steerParams))]
	x := c.rng.Float64()
	switch {
	case x < setShare:
		v := p.min + (p.max-p.min)*float64(c.rng.Intn(1001))/1000
		v, _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 12, 64), 64)
		return steerOp{name: "set_param", param: p.name, value: v,
			params: map[string]string{"name": p.name, "value": strconv.FormatFloat(v, 'g', -1, 64)}}
	case x < setShare+(1-setShare)*0.3:
		return steerOp{name: "status"}
	default:
		return steerOp{name: "get_param", param: p.name, params: map[string]string{"name": p.name}}
	}
}

// check validates a response against the client's expectations and
// updates them; it returns a description of the mismatch, or "".
func (c *steerClient) check(op steerOp, resp *wire.Message) string {
	if resp.Kind != wire.KindResponse {
		return fmt.Sprintf("%s %s: %s %q", c.name, op.name, resp.Kind, resp.Text)
	}
	switch op.name {
	case "status":
		if !strings.Contains(resp.Text, "running") {
			return fmt.Sprintf("%s status: %q", c.name, resp.Text)
		}
	case "get_param":
		v, _ := resp.GetFloat("value")
		if want := c.params[op.param]; v != want {
			return fmt.Sprintf("%s get_param %s = %v, last set %v", c.name, op.param, v, want)
		}
	case "set_param":
		v, _ := resp.GetFloat("value")
		if v != op.value {
			return fmt.Sprintf("%s set_param %s echoed %v, sent %v", c.name, op.param, v, op.value)
		}
		c.params[op.param] = op.value
		if c.fault == faultWrongParam {
			c.params[op.param]++
		}
	}
	return ""
}

// steerOnce runs one generated op end to end and reports its latency.
func (c *steerClient) steerOnce(ck *checks, tr *tracer, setShare float64) (time.Duration, bool) {
	op := c.nextSteerOp(setShare)
	opID := tr.op()
	root := tr.start(opID, -1, "bench", "steer "+op.name)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	t0 := time.Now()
	resp, err := c.command(ctx, tr, opID, root, op.name, op.params)
	lat := time.Since(t0)
	cancel()
	tr.end(root)
	ck.attempt()
	if err != nil {
		ck.fail("%v", err)
		return lat, false
	}
	if msg := c.check(op, resp); msg != "" {
		ck.fail("%s", msg)
		return lat, false
	}
	c.last = resp
	return lat, true
}

// probeInput is the client's steering traffic as the layer probes use it:
// the app-protocol command the host hands its app, and the response the
// client received.
func (c *steerClient) probeInput() probeInput {
	p := steerParams[0]
	cmd := wire.NewCommand(c.app, c.pc.ClientID(), "set_param",
		wire.Param{Key: "name", Value: p.name}, wire.Param{Key: "value", Value: strconv.FormatFloat(p.max/2, 'g', -1, 64)})
	cmd.Seq = 1
	cmd.Set("_user", "alice")
	resp := c.last
	if resp == nil {
		resp = wire.NewResponse(cmd, "set "+p.name)
	}
	return probeInput{cmd: cmd, resp: resp, msg: resp, members: 1}
}
