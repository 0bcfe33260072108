package orb

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
)

// ObjRef locates an object: the ORB endpoint that hosts it and its object
// key. It is the analogue of a CORBA interoperable object reference.
type ObjRef struct {
	Addr string // host:port of the hosting ORB
	Key  string // object key within that ORB
}

// IsZero reports whether the reference is unset.
func (r ObjRef) IsZero() bool { return r.Addr == "" && r.Key == "" }

// String renders the reference like an IOR-ish URL.
func (r ObjRef) String() string { return "orb://" + r.Addr + "/" + r.Key }

// Reply statuses.
const (
	replyOK        = 0 // body is the gob-encoded result
	replyUserError = 1 // body is a gob-encoded RemoteError raised by the servant
	replySysError  = 2 // body is a gob-encoded RemoteError raised by the ORB
)

// System error codes, mirroring the CORBA system exceptions DISCOVER
// would observe.
const (
	CodeNoServant   = "OBJECT_NOT_EXIST"
	CodeNoMethod    = "BAD_OPERATION"
	CodeMarshal     = "MARSHAL"
	CodeComm        = "COMM_FAILURE"
	CodeApplication = "APPLICATION" // user-raised
)

// RemoteError is an error raised on the remote side of an invocation.
type RemoteError struct {
	Code string
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("orb: %s: %s", e.Code, e.Msg) }

// IsRemote reports whether err is a RemoteError with the given code.
func IsRemote(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}

// IsPeerFailure classifies an invocation error as retryable peer failure
// versus application-level fault: COMM_FAILURE and invocation deadline
// expiry mean the peer is unreachable or unresponsive, while any error a
// live servant raised (BAD_OPERATION, APPLICATION, policy denials, ...)
// proves the peer is up. Failure detectors key off this split; a caller-
// cancelled context is deliberately not a peer failure.
func IsPeerFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	return IsRemote(err, CodeComm)
}

// request is the wire form of one invocation.
type request struct {
	id     uint64
	key    string
	method string
	args   []byte
	oneway bool
	trace  uint64 // sampled-request trace id; 0 = untraced (no trailer)
}

// reply is the wire form of one invocation result.
type reply struct {
	id           uint64
	status       uint8
	body         []byte
	trace        uint64 // echoed trace id; 0 = untraced request (no trailer)
	servantNanos uint64 // dispatch time at the servant, when trace != 0
}

func appendUv(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return append(dst, b[:n]...)
}

func appendStr(dst []byte, s string) []byte {
	return append(appendUv(dst, uint64(len(s))), s...)
}

func appendBlob(dst []byte, p []byte) []byte {
	return append(appendUv(dst, uint64(len(p))), p...)
}

var errBadFrame = errors.New("orb: malformed protocol frame")

type frameReader struct {
	src []byte
	off int
}

func (r *frameReader) u8() (byte, error) {
	if r.off >= len(r.src) {
		return 0, errBadFrame
	}
	b := r.src[r.off]
	r.off++
	return b, nil
}

// uv reads one uvarint from the frame.
func (r *frameReader) uv() (uint64, error) {
	v, sz := binary.Uvarint(r.src[r.off:])
	if sz <= 0 {
		return 0, errBadFrame
	}
	r.off += sz
	return v, nil
}

func (r *frameReader) str() (string, error) {
	n, sz := binary.Uvarint(r.src[r.off:])
	if sz <= 0 || r.off+sz+int(n) > len(r.src) || n > 1<<20 {
		return "", errBadFrame
	}
	r.off += sz
	s := string(r.src[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *frameReader) blob() ([]byte, error) {
	n, sz := binary.Uvarint(r.src[r.off:])
	if sz <= 0 || r.off+sz+int(n) > len(r.src) || n > 1<<26 {
		return nil, errBadFrame
	}
	r.off += sz
	b := make([]byte, n)
	copy(b, r.src[r.off:r.off+int(n)])
	r.off += int(n)
	return b, nil
}

// Marshal gob-encodes an invocation argument or result.
func Marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("orb: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// Unmarshal gob-decodes an invocation argument or result.
func Unmarshal(p []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(v); err != nil {
		return fmt.Errorf("orb: unmarshal: %w", err)
	}
	return nil
}
