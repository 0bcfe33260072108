package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"discover/internal/wire"
)

// echoServant echoes args for "echo" and returns a caller-sized blob for
// "blob" (args = decimal byte count).
type echoServant struct{}

func (echoServant) Dispatch(method string, args []byte) ([]byte, error) {
	size := func() int {
		var s []byte
		var n int
		if Unmarshal(args, &s) == nil {
			fmt.Sscanf(string(s), "%d", &n)
		}
		return n
	}
	switch method {
	case "echo":
		return args, nil
	case "blob":
		body := make([]byte, size())
		for i := range body {
			body[i] = byte(i)
		}
		return Marshal(body)
	case "text":
		return Marshal([]byte(strings.Repeat("compressible directory entry ", size())))
	case "boom":
		return nil, errors.New("kaboom")
	}
	return nil, &RemoteError{Code: CodeNoMethod, Msg: method}
}

func newV2ServerORB(t *testing.T) *ORB {
	t.Helper()
	o := New()
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	o.Register("obj", echoServant{})
	return o
}

type v2pair struct {
	client, server *ORB
	ref            ObjRef
}

func newV2Pair(t *testing.T) v2pair {
	t.Helper()
	server := newV2ServerORB(t)
	client := New()
	t.Cleanup(func() { client.Close() })
	return v2pair{client: client, server: server, ref: server.Ref("obj")}
}

type rawEcho struct {
	A int
	B string
}

// recordingConn records every Write handed to the socket.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) recorded() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

func TestV2Negotiation(t *testing.T) {
	server := newV2ServerORB(t)
	var rec *recordingConn
	client := New(WithDialer(func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		rec = &recordingConn{Conn: c}
		return rec, nil
	}))
	t.Cleanup(func() { client.Close() })
	p := v2pair{client: client, server: server, ref: server.Ref("obj")}

	var out rawEcho
	if err := p.client.Invoke(context.Background(), p.ref, "echo",
		rawEcho{A: 1, B: "x"}, &out); err != nil {
		t.Fatal(err)
	}
	// The first invocation on a fresh connection is one write: the
	// preface, then the REQUEST frame. No handshake round trip precedes it.
	st := p.client.Stats()
	if st.Writes != 1 {
		t.Fatalf("Writes = %d after the first invocation, want 1", st.Writes)
	}
	writes := rec.recorded()
	if len(writes) != 1 {
		t.Fatalf("first invocation issued %d socket writes, want 1", len(writes))
	}
	first := writes[0]
	if !bytes.HasPrefix(first, []byte(prefaceMagic)) {
		t.Fatalf("first write does not open with the preface: %q", first[:min(8, len(first))])
	}
	h, n, err := wire.ParseV2Header(first[len(prefaceMagic):])
	if err != nil || h.Type != wire.V2FrameRequest || len(prefaceMagic)+n+h.Length != len(first) {
		t.Fatalf("preface not followed by exactly one REQUEST frame: %+v, %v", h, err)
	}
	if st.Bytes != uint64(len(first)) || st.BytesOut != uint64(len(first)) {
		t.Fatalf("byte counters %d/%d, want %d", st.Bytes, st.BytesOut, len(first))
	}
	// The gob args of the first call defined a descriptor; repeats hit it.
	if st.InternDefs == 0 {
		t.Fatal("no descriptor definitions counted")
	}
	for i := 0; i < 5; i++ {
		if err := p.client.Invoke(context.Background(), p.ref, "echo",
			rawEcho{A: i, B: "y"}, &out); err != nil {
			t.Fatal(err)
		}
	}
	st2 := p.client.Stats()
	if st2.InternHits < 4 {
		t.Fatalf("InternHits = %d after repeated same-type calls", st2.InternHits)
	}
	// Interning must shrink repeat requests: later identical calls cost
	// fewer bytes than the first (which shipped the preface, descriptor
	// and target).
	perCall := (st2.Bytes - st.Bytes) / 5
	if perCall >= st.Bytes {
		t.Fatalf("repeat call bytes %d not below first-call bytes %d", perCall, st.Bytes)
	}
	// Later writes never repeat the preface.
	for i, w := range rec.recorded()[1:] {
		if bytes.HasPrefix(w, []byte(prefaceMagic)) {
			t.Fatalf("write %d repeats the preface", i+1)
		}
	}
}

func TestV2ChunkedReply(t *testing.T) {
	p := newV2Pair(t)
	// A 1.5 MiB body: far above V2ChunkSize, so it streams as chunks.
	var out []byte
	if err := p.client.Invoke(context.Background(), p.ref, "blob",
		[]byte("1500000"), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1500000 {
		t.Fatalf("body length %d", len(out))
	}
	for i := 0; i < len(out); i += 100003 {
		if out[i] != byte(i) {
			t.Fatalf("body corrupted at %d", i)
		}
	}
	// Errors still arrive while streaming works.
	err := p.client.Invoke(context.Background(), p.ref, "boom", []byte{}, nil)
	if !IsRemote(err, CodeApplication) {
		t.Fatalf("boom: %v", err)
	}
}

func TestV2BulkCompression(t *testing.T) {
	p := newV2Pair(t)
	probe := New()
	defer probe.Close()

	// The same highly compressible reply with and without WithBulk.
	var plainOut, bulkOut []byte
	if err := probe.Invoke(context.Background(), p.ref, "text", []byte("2000"), &plainOut); err != nil {
		t.Fatal(err)
	}
	plainBytes := p.server.Stats().Bytes
	if err := p.client.Invoke(WithBulk(context.Background()), p.ref, "text", []byte("2000"), &bulkOut); err != nil {
		t.Fatal(err)
	}
	bulkBytes := p.server.Stats().Bytes - plainBytes
	if !bytes.Equal(plainOut, bulkOut) {
		t.Fatal("bulk reply differs from plain reply")
	}
	if p.server.Stats().Compressed == 0 {
		t.Fatal("bulk reply was not compressed")
	}
	if bulkBytes*2 > plainBytes {
		t.Fatalf("compressed reply %d bytes vs plain %d: expected <50%%", bulkBytes, plainBytes)
	}
}

func TestV2CancelMidStreamDoesNotWedgeConnection(t *testing.T) {
	p := newV2Pair(t)
	// Cancel a bulk streamed reply mid-flight. The client keeps crediting
	// abandoned streams, so the server-side chunk writer must complete and
	// the connection must remain usable for subsequent invocations.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	var out []byte
	err := p.client.Invoke(ctx, p.ref, "blob", []byte("8000000"), &out)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled invoke: %v", err)
	}
	// Whether or not the cancel won the race, the connection must still
	// serve invocations afterwards.
	deadline, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	var echo rawEcho
	for i := 0; i < 20; i++ {
		if err := p.client.Invoke(deadline, p.ref, "echo", rawEcho{A: i}, &echo); err != nil {
			t.Fatalf("post-cancel invoke %d: %v", i, err)
		}
	}
}

func TestV2TraceTrailerPropagates(t *testing.T) {
	p := newV2Pair(t)
	// Send a traced request straight through roundTrip so the echoed
	// trailer is observable.
	ctx := context.Background()
	var out rawEcho
	if err := p.client.Invoke(ctx, p.ref, "echo", rawEcho{A: 1}, &out); err != nil {
		t.Fatal(err)
	}
	pc, err := p.client.getConn(ctx, p.ref.Addr)
	if err != nil {
		t.Fatal(err)
	}
	args, _ := Marshal(rawEcho{A: 2})
	_, meta, err := pc.roundTrip(ctx, "obj", "echo", args, 0xDEC0DE)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Trace != 0xDEC0DE {
		t.Fatalf("trace trailer not echoed over v2: %x", meta.Trace)
	}
}

// TestV2PipeliningHammer drives many concurrent invocations — small
// echoes, large streamed blobs, bulk compressed texts, oneways — over one
// pooled connection under the race detector.
func TestV2PipeliningHammer(t *testing.T) {
	server := newV2ServerORB(t)
	var connsMu sync.Mutex
	var conns []*recordingConn
	client := New(WithDialer(func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		rc := &recordingConn{Conn: c}
		connsMu.Lock()
		conns = append(conns, rc)
		connsMu.Unlock()
		return rc, nil
	}))
	t.Cleanup(func() { client.Close() })
	p := v2pair{client: client, server: server, ref: server.Ref("obj")}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (w + i) % 4 {
				case 0:
					var out rawEcho
					in := rawEcho{A: w*1000 + i, B: "hammer"}
					if err := p.client.Invoke(ctx, p.ref, "echo", in, &out); err != nil {
						errs <- err
						return
					}
					if out != in {
						errs <- fmt.Errorf("echo mismatch: %+v vs %+v", in, out)
						return
					}
				case 1:
					var out []byte
					if err := p.client.Invoke(ctx, p.ref, "blob", []byte("200000"), &out); err != nil {
						errs <- err
						return
					}
					if len(out) != 200000 {
						errs <- fmt.Errorf("blob length %d", len(out))
						return
					}
				case 2:
					var out []byte
					if err := p.client.Invoke(WithBulk(ctx), p.ref, "text", []byte("500"), &out); err != nil {
						errs <- err
						return
					}
				case 3:
					if err := p.client.InvokeOneway(ctx, p.ref, "echo", rawEcho{A: i}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Everything above multiplexed over exactly one connection: racing
	// first callers may dial extras, but only the pooled winner carries
	// traffic.
	used := 0
	for _, c := range conns {
		if len(c.recorded()) > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("traffic spread over %d connections, want 1", used)
	}
}
