package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"discover/internal/appproto"
	"discover/internal/core"
	"discover/internal/experiments"
	"discover/internal/netsim"
)

// Steer workload settings.
const (
	// steerPhaseDelay is the app's compute pause per phase: commands wait
	// for the next interaction phase, and the app stays mostly asleep. At
	// 1 ms the two apps' phase loops woke so often that CPU per op spread
	// 0.13–0.19 across ten-seed runs; at 2 ms it held within 0.09.
	steerPhaseDelay = 2 * time.Millisecond
	// steerUpdateEvery keeps periodic updates rare: steering barely
	// touches collaboration fan-out.
	steerUpdateEvery = 64
	// steerSetShare is the share of set_param in the op mix.
	steerSetShare = 0.3
	steerWarmOps  = 50
)

// steer is the paper's primary operation (§5.2.1): a remote client at
// domain edge and a local client at domain host each steer their own
// application on host in a closed loop, one goroutine on one keep-alive
// connection each.
type steer struct {
	fed     *experiments.Federation
	apps    []*appRunner
	sessAll []*appproto.Session
	clients []*steerClient // [0] remote at edge, [1] local at host
	sy      *system
	ck      checks
}

func (s *steer) sys() *system { return s.sy }

func (s *steer) setup(o options) error {
	s.ck = checks{}
	fed, err := experiments.NewFederation(experiments.FederationConfig{
		Mode: core.Push,
		Domains: []struct {
			Name string
			Site netsim.Site
		}{experiments.DomainAt("host", "east"), experiments.DomainAt("edge", "west")},
		HeartbeatEvery: time.Hour, OfferTTL: time.Hour, DiscoverEvery: time.Hour,
	})
	if err != nil {
		return err
	}
	s.fed = fed
	host, edge := fed.Domains[0], fed.Domains[1]
	for _, d := range fed.Domains {
		d.Srv.Auth().SetUserSecret("alice", "pw")
	}
	s.sy = &system{
		net: fed.Net, portal: edge.BaseURL(),
	}
	for _, d := range fed.Domains {
		s.sy.servers = append(s.sy.servers, d.Srv)
		s.sy.orbs = append(s.sy.orbs, d.ORB)
		s.sy.subs = append(s.sy.subs, d.Sub)
	}

	at := []*experiments.Domain{edge, host}
	for i, name := range []string{"remote", "local"} {
		as, err := experiments.AttachApp(host, "steer-"+name, 1,
			appproto.WithPhaseDelay(steerPhaseDelay), appproto.WithUpdateEvery(steerUpdateEvery))
		if err != nil {
			return err
		}
		s.sessAll = append(s.sessAll, as)
		s.apps = append(s.apps, startApp(as))
		c := newSteerClient(name, fed.HTTPClientFrom(at[i].Site), at[i].BaseURL(), o.seed*7919+int64(i))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = c.join(ctx, "alice", as.AppID())
		if err == nil {
			err = c.learnParams(ctx)
		}
		cancel()
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	warm := steerWarmOps
	if o.short {
		warm = 5
	}
	var ck checks
	for _, c := range s.clients {
		for i := 0; i < warm; i++ {
			if _, ok := c.steerOnce(&ck, nil, steerSetShare); !ok {
				return fmt.Errorf("warm-up: %v", ck.problems)
			}
		}
		c.fault = o.fault
	}
	for _, a := range s.apps {
		a.take()
	}
	return nil
}

func (s *steer) window(d time.Duration, rec *recorder) error {
	for _, a := range s.apps {
		a.tr.Store(rec.tr)
		a.take()
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *steerClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				// A seeded think time decorrelates the next command from
				// the app's phase clock; without it every command lands
				// just after an interaction phase and waits a whole phase,
				// hiding the middleware's own latency.
				time.Sleep(time.Duration(c.rng.Int63n(int64(steerPhaseDelay))))
				lat, _ := c.steerOnce(&s.ck, rec.tr, steerSetShare)
				rec.observe("steer_"+c.name, lat)
				rec.addOps(1)
			}
		}(c)
	}
	wg.Wait()
	for _, a := range s.apps {
		a.tr.Store(nil)
	}
	return recordPhases(rec, s.apps)
}

func (s *steer) finish(r *report) {
	s.ck.into(r)
	r.Env["clients"] = "remote@edge,local@host"
	r.Env["phase_delay"] = steerPhaseDelay.String()
}

func (s *steer) paths() (string, string) { return "steer_remote", "steer_local" }

func (s *steer) probeInput() probeInput { return s.clients[0].probeInput() }

func (s *steer) teardown() {
	for _, a := range s.apps {
		a.halt()
	}
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
	if s.fed != nil {
		s.fed.Close()
	}
	for _, as := range s.sessAll {
		as.Close()
	}
	*s = steer{}
}
