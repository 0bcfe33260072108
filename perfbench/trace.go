package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/telemetry"
)

// span is one benchmark-side interval around a call into a public
// function of the program. Spans of one operation share Op; Parent links
// a call to the operation (or call) that made it.
type span struct {
	Op     uint64 `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"startNanos"` // since the traced window began
	Dur    int64  `json:"durNanos"`
}

// tracer keeps the benchmark's spans in memory; the run writes them out
// when it ends. A nil *tracer records nothing.
type tracer struct {
	t0     time.Time
	nextOp atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates the id shared by one operation's spans.
func (t *tracer) op() uint64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// start opens a span and returns its id (-1 when not tracing).
func (t *tracer) start(op uint64, parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Layer: layer, Name: name, Start: now, Dur: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].Dur = now - t.spans[id].Start
	t.mu.Unlock()
}

// selfTime is the summed self time of the spans sharing one name.
type selfTime struct {
	total time.Duration
	n     int
}

// selfTimes sums, per layer and span name, each span's duration minus
// the part of its interval that its children cover.
func selfTimes(spans []span) map[string]selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 && s.Dur >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		if s.Dur < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.Start+k.Dur, s.Start+s.Dur)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Layer+"/"+s.Name]
		st.total += time.Duration(s.Dur - covered)
		st.n++
		out[s.Layer+"/"+s.Name] = st
	}
	return out
}

// hopSet is the program's own sampled request spans, grouped by hop
// (edge, queue, rpc, servant): one duration per trace that has the hop.
type hopSet map[string][]time.Duration

// fetchHops reads the finished traces through the open trace routes, as
// an operator would: the list, then each trace with its remote spans
// merged in.
func fetchHops(sy *system) (hopSet, error) {
	hops := hopSet{}
	if sy.portal == "" {
		return hops, nil
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	var recent []telemetry.TraceRecord
	if err := getJSON(hc, sy.portal+"/api/v1/trace?max=256", &recent); err != nil {
		return nil, err
	}
	for _, r := range recent {
		if !workloadOp(r.Op) {
			continue
		}
		var rec telemetry.TraceRecord
		if err := getJSON(hc, sy.portal+"/api/v1/trace/"+r.ID, &rec); err != nil {
			continue // evicted between the list and the fetch
		}
		per := map[string]int64{}
		for _, sp := range rec.Spans {
			per[sp.Hop] += sp.DurNanos
		}
		for hop, d := range per {
			hops[hop] = append(hops[hop], time.Duration(d))
		}
	}
	return hops, nil
}

// workloadOp reports whether a traced request is one of the workloads'
// measured operations rather than set-up (login, connect, listing).
func workloadOp(op string) bool {
	for _, p := range []string{"command ", "chat", "whiteboard", "lock"} {
		if strings.HasPrefix(op, p) {
			return true
		}
	}
	return false
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
