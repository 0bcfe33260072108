package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"discover/internal/netsim"
	"discover/internal/orb"
)

// RunW1 measures what wire protocol v2 buys over the retired v1/gob
// baseline, with raw ORB pairs over an accounted (and, for the last row,
// shaped) netsim link so every byte on the wire is attributable. The ORB
// speaks only v2, so the v1 side of each comparison is computed from the
// frozen v1 frame layout rather than measured:
//
//   - small-message traffic: the paper's steering workload is thousands
//     of tiny control messages, where gob's per-message self-description
//     and the repeated (key, method) target dominate the payload. v2
//     interns both per connection, so its measured bytes must be at
//     least 40% below the v1 frame sizes of the same calls (v1Bytes).
//   - bulk compression: a WithBulk exchange flate-compresses a redundant
//     payload; plain invocations never pay for compression.
//   - head-of-line blocking: on a bandwidth-limited WAN link a v1 bulk
//     reply is one frame that serializes the connection, so a small call
//     issued after the 5 ms head start waits at least the rest of the
//     transfer (blobBytes/bandwidth - 5 ms). v2 streams the reply as
//     interleavable chunks, so the small call's worst case is bounded by
//     the in-flight flow-control window, not the transfer size.
//
// msgs sizes the small-message workload; blobBytes sizes the bulk
// payload (it should be several times wire.V2StreamWindow so the HOL row
// exercises flow control, not just chunking).
func RunW1(msgs, blobBytes int) (Result, error) {
	if msgs <= 0 {
		msgs = 2000
	}
	if blobBytes <= 0 {
		blobBytes = 1 << 20
	}
	res := Result{ID: "W1", Title: "Wire protocol v2: interned codec, compression, pipelining"}

	// --- Row 1: small-message bytes on the wire, v1 vs v2. ---
	ctx := context.Background()
	smallBytes := func() (v1, v2 uint64, err error) {
		leg, err := newW1Leg(nil)
		if err != nil {
			return 0, 0, err
		}
		defer leg.close()
		var out w1Echo
		for i := 0; i < msgs; i++ {
			in := w1SmallCall(i)
			if err := leg.client.Invoke(ctx, leg.ref, "echo", in, &out); err != nil {
				return 0, 0, err
			}
			n, err := v1Bytes(leg.ref.Key, "echo", in, in) // the servant echoes in
			if err != nil {
				return 0, 0, err
			}
			v1 += n
		}
		return v1, leg.net.TotalWAN().Bytes, nil
	}
	v1Small, v2Small, err := smallBytes()
	if err != nil {
		return res, err
	}
	reduction := 1 - float64(v2Small)/float64(v1Small)
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("small-message bytes on the wire (%d invocations)", msgs),
		Paper: "interning targets and gob descriptors removes per-message self-description: >=40% fewer bytes than v1/gob",
		Measured: fmt.Sprintf("v1 frames %d B vs v2 %d B including preface — %.1f%% reduction (%.1f vs %.1f B/call)",
			v1Small, v2Small, 100*reduction, float64(v1Small)/float64(msgs), float64(v2Small)/float64(msgs)),
		Pass: reduction >= 0.40,
	})

	// --- Row 2: bulk compression is opt-in and effective. ---
	leg, err := newW1Leg(nil)
	if err != nil {
		return res, err
	}
	blob := func(ctx context.Context, compressible bool) (uint64, error) {
		before := leg.net.TotalWAN().Bytes
		var out w1Blob
		err := leg.client.Invoke(ctx, leg.ref, "blob", w1BlobReq{N: blobBytes, Compressible: compressible}, &out)
		if err != nil {
			return 0, err
		}
		if len(out.Data) != blobBytes {
			return 0, fmt.Errorf("w1: blob returned %d bytes, want %d", len(out.Data), blobBytes)
		}
		return leg.net.TotalWAN().Bytes - before, nil
	}
	plainB, err := blob(ctx, true)
	if err != nil {
		leg.close()
		return res, err
	}
	bulkB, err := blob(orb.WithBulk(ctx), true)
	leg.close()
	if err != nil {
		return res, err
	}
	cratio := float64(bulkB) / float64(plainB)
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("bulk compression via WithBulk (%d B redundant payload)", blobBytes),
		Paper: "bulk exchanges opt into flate per frame; plain invocations ship raw",
		Measured: fmt.Sprintf("plain %d B vs WithBulk %d B — ratio %.2f",
			plainB, bulkB, cratio),
		Pass: bulkB < plainB && cratio <= 0.5,
	})

	// --- Row 3: head-of-line blocking on a shaped link. ---
	const bandwidth, headStart = 8 << 20, 5 * time.Millisecond // 8 MB/s
	shape := func(t *netsim.Topology) {
		t.SetRTT("east", "west", 10*time.Millisecond)
		t.SetBandwidth("east", "west", bandwidth)
	}
	holWorst := func() (time.Duration, int, error) {
		leg, err := newW1Leg(shape)
		if err != nil {
			return 0, 0, err
		}
		defer leg.close()
		var warm w1Echo
		if err := leg.client.Invoke(ctx, leg.ref, "echo", w1Echo{Op: "warm"}, &warm); err != nil {
			return 0, 0, err
		}
		done := make(chan error, 1)
		go func() {
			var out w1Blob
			done <- leg.client.Invoke(ctx, leg.ref, "blob", w1BlobReq{N: blobBytes}, &out)
		}()
		// Give the bulk request a head start onto the wire, then hammer
		// small calls on the same pooled connection until it completes.
		time.Sleep(headStart)
		var worst time.Duration
		probes := 0
		var out w1Echo
		for {
			t0 := time.Now()
			if err := leg.client.Invoke(ctx, leg.ref, "echo", w1Echo{Op: "probe"}, &out); err != nil {
				return 0, 0, err
			}
			if lat := time.Since(t0); lat > worst {
				worst = lat
			}
			probes++
			select {
			case err := <-done:
				if err != nil {
					return 0, 0, err
				}
				return worst, probes, nil
			default:
			}
		}
	}
	// A single-frame reply holds the link for the whole transfer; a probe
	// issued after the head start waits at least the remainder.
	v1Bound := time.Duration(blobBytes)*time.Second/bandwidth - headStart
	v2Worst, v2N, err := holWorst()
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("worst small-call latency during a concurrent %d B fetch (8 MB/s, 10 ms RTT)", blobBytes),
		Paper: "v2 chunks interleave streams so a bulk reply no longer head-of-line-blocks small calls; v1 serializes the whole frame",
		Measured: fmt.Sprintf("v1 lower bound %s (transfer time minus head start) vs v2 worst %s (%d probes)",
			v1Bound.Round(time.Millisecond), v2Worst.Round(time.Millisecond), v2N),
		Pass: v2N > 0 && 2*v2Worst <= v1Bound,
	})

	w1mu.Lock()
	w1last = &W1Snapshot{
		Msgs:              msgs,
		BlobBytes:         blobBytes,
		V1FrameBytes:      v1Small,
		V2SmallBytes:      v2Small,
		SmallReductionPct: 100 * reduction,
		PlainBlobBytes:    plainB,
		BulkBlobBytes:     bulkB,
		CompressionRatio:  cratio,
		V1HolBoundMS:      float64(v1Bound) / float64(time.Millisecond),
		V2HolWorstMS:      float64(v2Worst) / float64(time.Millisecond),
	}
	w1mu.Unlock()
	return res, nil
}

// W1Snapshot is the compact BENCH_W1.json record of the last RunW1.
type W1Snapshot struct {
	Msgs              int     `json:"msgs"`
	BlobBytes         int     `json:"blobBytes"`
	V1FrameBytes      uint64  `json:"v1FrameBytes"` // computed from the v1 frame layout
	V2SmallBytes      uint64  `json:"v2SmallBytes"`
	SmallReductionPct float64 `json:"smallReductionPct"`
	PlainBlobBytes    uint64  `json:"plainBlobBytes"`
	BulkBlobBytes     uint64  `json:"bulkBlobBytes"`
	CompressionRatio  float64 `json:"compressionRatio"`
	V1HolBoundMS      float64 `json:"v1HolBoundMs"` // transfer time minus head start
	V2HolWorstMS      float64 `json:"v2HolWorstMs"`
}

var (
	w1mu   sync.Mutex
	w1last *W1Snapshot
)

// W1LastSnapshot returns the compact record of the most recent RunW1 in
// this process (cmd/benchharness writes it to BENCH_W1.json).
func W1LastSnapshot() (W1Snapshot, bool) {
	w1mu.Lock()
	defer w1mu.Unlock()
	if w1last == nil {
		return W1Snapshot{}, false
	}
	return *w1last, true
}

// w1Echo is the small steering-sized control message for row 1.
type w1Echo struct {
	Seq    int
	Client string
	Op     string
	Value  string
}

// w1SmallCall is the i-th call of the row-1 workload.
func w1SmallCall(i int) w1Echo {
	return w1Echo{Seq: i, Client: "client-7", Op: "set_param", Value: "source_freq"}
}

// w1BlobReq asks the servant for an N-byte payload; Compressible selects
// a redundant fill (for the compression row) over a pattern flate cannot
// shrink meaningfully.
type w1BlobReq struct {
	N            int
	Compressible bool
}

type w1Blob struct{ Data []byte }

// w1Leg is one measured client/server ORB pair: server at east, client
// dialing from west, every byte between them accounted by netsim.
type w1Leg struct {
	net    *netsim.Network
	client *orb.ORB
	server *orb.ORB
	ref    orb.ObjRef
}

func (l *w1Leg) close() {
	l.client.Close()
	l.server.Close()
}

// newW1Leg builds a fresh pair per measurement so interning tables and
// pooled connections never leak between legs.
func newW1Leg(shape func(*netsim.Topology)) (*w1Leg, error) {
	topo := netsim.NewTopology()
	if shape != nil {
		shape(topo)
	}
	n := netsim.New(topo)
	srv := orb.New()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	srv.Register("w1", orb.MethodMap{
		"echo": orb.Handler(func(e w1Echo) (w1Echo, error) { return e, nil }),
		"blob": orb.Handler(func(r w1BlobReq) (w1Blob, error) {
			data := make([]byte, r.N)
			if r.Compressible {
				copy(data, bytes.Repeat([]byte("steering update source_freq=0.30 "), r.N/33+1))
			} else {
				x := uint32(2463534242)
				for i := range data {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					data[i] = byte(x)
				}
			}
			return w1Blob{Data: data}, nil
		}),
	})
	client := orb.New(orb.WithDialer(n.Dialer("west", "east")))
	return &w1Leg{net: n, client: client, server: srv, ref: srv.Ref("w1")}, nil
}

// v1Bytes is the frozen size of one two-way invocation in the retired
// protocol v1: a request frame and its OK reply, each behind a 4-byte
// length prefix, with the gob encodings of in and out as args and body.
//
//	request := len(4) "DORB"(4) version(1) msgtype(1) id(8) key(str) method(str) args(blob)
//	reply   := len(4) "DORB"(4) version(1) msgtype(1) id(8) status(1) body(blob)
func v1Bytes(key, method string, in, out any) (uint64, error) {
	args, err := orb.Marshal(in)
	if err != nil {
		return 0, err
	}
	body, err := orb.Marshal(out)
	if err != nil {
		return 0, err
	}
	str := func(n int) int {
		var b [binary.MaxVarintLen64]byte
		return binary.PutUvarint(b[:], uint64(n)) + n
	}
	req := 4 + 4 + 1 + 1 + 8 + str(len(key)) + str(len(method)) + str(len(args))
	rep := 4 + 4 + 1 + 1 + 8 + 1 + str(len(body))
	return uint64(req + rep), nil
}
