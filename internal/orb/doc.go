// Package orb is a from-scratch object request broker: the repository's
// stand-in for CORBA/IIOP.
//
// The DISCOVER middleware substrate builds on CORBA for peer-to-peer
// server connectivity and uses the CORBA Naming and Trader services for
// application and server discovery. No CORBA ORB is available here (and
// the paper itself treats the ORB as a commodity it merely evaluates), so
// this package implements the part of the object model DISCOVER needs:
//
//   - object references (ObjRef = endpoint address + object key),
//   - synchronous remote method invocation with request multiplexing over
//     pooled connections (GIOP-like framed request/reply),
//   - oneway operations (fire-and-forget, used by the push relay),
//   - servant registration and dispatch,
//   - a Naming service (bind/resolve), and
//   - a Trader service (service offers with property lists and a
//     constraint query language), as specified for the paper's prototype
//     which layered a minimal trader over the naming service.
//
// Argument marshalling uses encoding/gob, mirroring the prototype's use of
// Java object serialization over IIOP.
//
// # Wire protocol
//
// Every peer in a federation is this binary, so the ORB speaks one
// protocol, v2; WIRE.md at the repository root is its normative spec.
// The client writes the 4-byte "DWP2" preface in front of the first
// frame of its first write; the server reads exactly those bytes and
// closes the connection on a mismatch. There is no acknowledgement and
// no extra round trip. After the preface, both sides exchange
// varint-headed frames with
//
//   - interned targets and type descriptors ((key, method) pairs and gob
//     descriptor prefixes ship once per connection, then travel as ids),
//   - multiplexed pipelining (each request is a stream; reply bodies over
//     wire.V2ChunkSize stream as CHUNK frames that interleave with other
//     streams, paced by per-stream CREDIT flow control, so one bulk reply
//     no longer head-of-line-blocks concurrent invocations), and
//   - opt-in flate compression for bulk exchanges (WithBulk).
//
// Stats reports the bytes handed to the socket, write and reply counts,
// descriptor-cache defs/hits and compressed frames.
//
// # Telemetry
//
// When a sampled trace rides the invocation context
// (internal/telemetry), its id crosses the wire as an optional frame
// trailer (wire.TraceMeta); the servant side measures dispatch time,
// records the servant span locally, and echoes the trailer so the caller
// can split servant time out of its round-trip measurement. Untraced
// requests carry no trailer. Invocation, servant-dispatch and oneway latencies feed
// per-operation histograms regardless of sampling.
package orb
