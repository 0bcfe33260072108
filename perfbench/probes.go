package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"discover/internal/collab"
	"discover/internal/lockmgr"
	"discover/internal/orb"
	"discover/internal/session"
	"discover/internal/storage"
	"discover/internal/wire"
)

// probeInput is what a workload generated, for the layer probes: an
// app-protocol command and its response, the message its receivers most
// often get, and the size of its collaboration group.
type probeInput struct {
	cmd     *wire.Message
	resp    *wire.Message
	msg     *wire.Message
	members int
}

// probeResult is one probe figure per name: ns or µs per call, allocs per
// call.
type probeResult map[string]float64

// forwardArg and batchArg mirror the argument shapes the substrate sends:
// a forwarded client command, and a relayed batch of group messages. Gob
// encodes by field name, so the mirrors marshal exactly like the originals.
type forwardArg struct{ Cmd *wire.Message }

type batchItem struct {
	App string
	Msg *wire.Message
}

type batchArg struct {
	Items []batchItem
	From  string
}

// timeCalls runs f n times and returns ns per call and allocs per call.
func timeCalls(n int, f func(i int)) (float64, float64) {
	a0 := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(t0)
	return float64(d.Nanoseconds()) / float64(n), float64(mallocs()-a0) / float64(n)
}

func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runProbes times each layer's public function for a fixed count on the
// workload's own inputs, with a span around each probe.
func runProbes(in probeInput, tr *tracer, short bool) (probeResult, error) {
	scale := 1
	if short {
		scale = 20
	}
	out := probeResult{}
	probe := func(name string, f func() error) error {
		id := tr.start(tr.op(), -1, "probe", name)
		defer tr.end(id)
		return f()
	}

	err := probe("session.Queue.Push", func() error {
		// A drained queue: pushes in batches of half its capacity, drained
		// (untimed) between batches as a polling client would.
		const n, batch = 20000, session.DefaultCapacity / 2
		q := session.NewQueue(0, 0)
		var total float64
		for done := 0; done < n/scale; done += batch {
			ns, _ := timeCalls(batch, func(int) { q.Push(in.msg) })
			total += ns
			q.DrainEntries(0)
		}
		out["session.push_ns"] = total / float64((n/scale+batch-1)/batch)
		full := session.NewQueue(0, 0)
		for i := 0; i < session.DefaultCapacity; i++ {
			full.Push(in.msg)
		}
		out["session.push_full_ns"], _ = timeCalls(n/scale, func(int) { full.Push(in.msg) })
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = probe("orb.Invoke", func() error {
		srv := orb.New()
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer srv.Close()
		srv.Register("bench", orb.MethodMap{
			"command": orb.Handler(func(forwardArg) (struct{}, error) { return struct{}{}, nil }),
		})
		cli := orb.New()
		defer cli.Close()
		ref := srv.Ref("bench")
		ctx := context.Background()
		arg := forwardArg{Cmd: in.cmd}
		if err := cli.Invoke(ctx, ref, "command", arg, nil); err != nil {
			return err
		}
		var ierr error
		ns, allocs := timeCalls(2000/scale, func(int) {
			if err := cli.Invoke(ctx, ref, "command", arg, nil); err != nil && ierr == nil {
				ierr = err
			}
		})
		out["orb.invoke_us"], out["orb.invoke_allocs"] = ns/1e3, allocs
		return ierr
	})
	if err != nil {
		return nil, err
	}

	err = probe("orb.Marshal", func() error {
		batch := batchArg{From: "host"}
		for i := 0; i < 4; i++ {
			batch.Items = append(batch.Items, batchItem{App: in.msg.App, Msg: in.msg})
		}
		b, err := orb.Marshal(batch)
		if err != nil {
			return err
		}
		ns, _ := timeCalls(5000/scale, func(int) { orb.Marshal(batch) })
		out["orb.marshal_us"] = ns / 1e3
		var uerr error
		ns, allocs := timeCalls(5000/scale, func(int) {
			var got batchArg
			if err := orb.Unmarshal(b, &got); err != nil && uerr == nil {
				uerr = err
			}
		})
		out["orb.unmarshal_us"], out["orb.unmarshal_allocs"] = ns/1e3, allocs
		return uerr
	})
	if err != nil {
		return nil, err
	}

	err = probe("wire.BinaryCodec", func() error {
		var codec wire.BinaryCodec
		var buf []byte
		var eerr error
		enc, _ := timeCalls(20000/scale, func(i int) {
			m := in.cmd
			if i%2 == 1 {
				m = in.resp
			}
			var err error
			if buf, err = codec.Encode(buf[:0], m); err != nil && eerr == nil {
				eerr = err
			}
		})
		cmdB, err := codec.Encode(nil, in.cmd)
		if err != nil {
			return err
		}
		respB, err := codec.Encode(nil, in.resp)
		if err != nil {
			return err
		}
		dec, _ := timeCalls(20000/scale, func(i int) {
			b := cmdB
			if i%2 == 1 {
				b = respB
			}
			if _, err := codec.Decode(b); err != nil && eerr == nil {
				eerr = err
			}
		})
		out["wire.codec_encode_ns"], out["wire.codec_decode_ns"] = enc, dec
		return eerr
	})
	if err != nil {
		return nil, err
	}

	err = probe("collab.Group.BroadcastUpdate", func() error {
		g := collab.NewHub(collab.WithOrigin("probe")).Group(in.msg.App)
		for i := 0; i < in.members; i++ {
			g.Join(fmt.Sprintf("probe/client-%d", i), func(*wire.Message) {})
		}
		ns, _ := timeCalls(20000/scale, func(int) { g.BroadcastUpdate(in.msg, "") })
		out["collab.broadcast_us"] = ns / 1e3
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = probe("lockmgr.TryAcquire", func() error {
		m := lockmgr.NewManager()
		apps := make([]string, 1000)
		for i := range apps {
			apps[i] = fmt.Sprintf("app-%d", i)
		}
		var total float64
		const rounds = 20
		for r := 0; r < rounds; r++ {
			ns, _ := timeCalls(len(apps), func(i int) { m.TryAcquire(apps[i], "owner", time.Minute) })
			total += ns
			for _, a := range apps {
				m.Release(a, "owner")
			}
		}
		out["lockmgr.try_acquire_ns"] = total / rounds
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = probe("storage.Journal.Record", func() error {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(".bench_build", "probe-wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		b, err := storage.OpenFile(dir)
		if err != nil {
			return err
		}
		defer b.Close()
		j := storage.NewJournal(b, 0, nil)
		defer j.Close()
		ev := storage.QueuePushEvent{ClientID: in.msg.Client, At: time.Now(), Msg: in.msg}
		ns, _ := timeCalls(5000/scale, func(i int) {
			ev.Seq = uint64(i)
			j.Record(storage.KindQueuePush, ev)
		})
		if j.Failed() {
			return fmt.Errorf("probe journal failed")
		}
		out["storage.record_us"] = ns / 1e3
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
