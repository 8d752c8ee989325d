// Package wire defines the client/server protocol of SEED's two-level
// multi-user extension (paper, section "Open problems"): one central server
// runs the complete database; clients use the server for retrieval
// operations but take local copies for making updates. Data copied to a
// client for update carries a write lock in the central database; when the
// client sends the updated copy back, the server puts it into the central
// database in a single transaction.
//
// Messages are length-prefixed binary frames over any byte stream: a
// 4-byte little-endian payload length, then the payload in internal/codec's
// encoding — a tag byte naming the frame type (Request or Response), then
// the type's fields. Each type states its encoding once, in one code method
// over a codec.Coder that both encodes and decodes: its strings are one
// Strings group; slices are a count and their elements, pointers a presence
// flag and their value, byte slices length-prefixed. The same codec writes
// the log records and snapshots, so a follower's log chunks carry record
// bytes as they are.
//
// Frames are correlated and pipelined: every request carries a nonzero Seq,
// which the server echoes in the matching response, so one connection can
// have many requests in flight and receive retrieval responses out of order.
// Mutating operations keep per-client FIFO order. The version is announced
// at hello: the client sends Proto and is answered with the server's. A
// hello announcing another version, or any later frame without a Seq, is
// answered with one error naming the unsupported protocol and the
// connection is closed; a payload that does not decode (a JSON frame of
// protocol 2, say) closes the connection unanswered.
//
// The JSON struct tags are not the wire format. They keep a frame's JSON
// rendering stable for the tools that print or hash one (seedmark's op
// digest hashes each request's JSON form).
package wire

import (
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/codec"
)

// MaxFrame bounds one protocol frame (8 MiB).
const MaxFrame = 8 << 20

// Proto is the protocol version announced at hello: binary frames, Seq
// correlation (pipelining) and the query operation. It is the only one
// served.
const Proto = 3

// Frame errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrBadFrame      = errors.New("wire: malformed frame")
)

// Op names the request operations.
type Op string

// The protocol operations.
const (
	OpHello        Op = "hello"
	OpGet          Op = "get"          // retrieve an object subtree by name
	OpList         Op = "list"         // list independent objects by class
	OpCheckout     Op = "checkout"     // lock + copy objects for update
	OpCheckin      Op = "checkin"      // apply staged updates in one transaction
	OpRelease      Op = "release"      // drop locks without updating
	OpSaveVersion  Op = "save-version" // snapshot the central database
	OpVersions     Op = "versions"     // list versions
	OpCompleteness Op = "completeness" // run the completeness check
	OpStats        Op = "stats"
	OpQuery        Op = "query"         // server-side query on the indexed snapshot
	OpSubscribeLog Op = "subscribe-log" // follower replication stream: snapshot, sealed segments, live batches
)

// Object is the wire form of one object.
type Object struct {
	ID        uint64 `json:"id"`
	Class     string `json:"class"`
	Name      string `json:"name,omitempty"`
	Path      string `json:"path,omitempty"`
	ValueKind uint8  `json:"vkind,omitempty"`
	Value     string `json:"value,omitempty"`
}

// End is one end of a relationship: the role and the path of the object
// filling it.
type End struct {
	Role string `json:"role"`
	Path string `json:"path"`
}

// Relationship is the wire form of one relationship. Its ends are in role
// order.
type Relationship struct {
	ID    uint64 `json:"id"`
	Assoc string `json:"assoc"`
	Ends  []End  `json:"ends"`
}

// Snapshot is the copy of an object subtree a checkout returns.
type Snapshot struct {
	Root    string         `json:"root"`
	Objects []Object       `json:"objects"`
	Rels    []Relationship `json:"rels"`
}

// Update is one staged mutation a client sends back at check-in. Items are
// addressed by qualified path, so updates compose without knowing the
// server's item IDs.
type Update struct {
	Kind      string `json:"kind"` // create-object, create-sub, set-value, create-rel, delete, reclassify, describe
	Class     string `json:"class,omitempty"`
	Name      string `json:"name,omitempty"`
	Path      string `json:"path,omitempty"`
	Role      string `json:"role,omitempty"`
	Assoc     string `json:"assoc,omitempty"`
	Ends      []End  `json:"ends,omitempty"` // create-rel, in role order
	ValueKind uint8  `json:"vkind,omitempty"`
	Value     string `json:"value,omitempty"`
}

// Update kinds.
const (
	UpdateCreateObject = "create-object"
	UpdateCreateSub    = "create-sub"
	UpdateSetValue     = "set-value"
	UpdateCreateRel    = "create-rel"
	UpdateDelete       = "delete"
	UpdateReclassify   = "reclassify"
)

// Comparison operator spellings for Where.Op. They match the query
// package's CompareOp.String so shells and logs read the same either side
// of the wire.
const (
	CmpEq       = "="
	CmpNe       = "!="
	CmpLt       = "<"
	CmpLe       = "<="
	CmpGt       = ">"
	CmpGe       = ">="
	CmpContains = "contains"
)

// Where is one sub-object value predicate of a wire query: some sub-object
// reached by the role path must have a value for which `value op given`
// holds. Undefined values match nothing.
type Where struct {
	Path      string `json:"path"`  // role path below the candidate ("Text.Selector")
	Op        string `json:"op"`    // one of the Cmp* spellings
	ValueKind uint8  `json:"vkind"` // kind the comparison value parses as
	Value     string `json:"value"`
}

// FollowStep navigates the selected set along an association: for every
// relationship of Assoc (or a specialization) where a selected object fills
// From, the object filling To is collected.
type FollowStep struct {
	Assoc string `json:"assoc"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// Query is the wire form of the retrieval component's query builder,
// executed server-side against one consistent indexed snapshot. Limit and
// Offset page the final result set (after Follow steps), so result sets
// larger than MaxFrame are fetched in slices; Response.Total reports the
// unpaged match count so clients know when they have everything.
type Query struct {
	Class    string       `json:"class,omitempty"`
	Specs    bool         `json:"specs,omitempty"` // include specializations of Class
	NameGlob string       `json:"glob,omitempty"`
	Where    []Where      `json:"where,omitempty"`
	Follow   []FollowStep `json:"follow,omitempty"`
	Limit    int          `json:"limit,omitempty"`
	Offset   int          `json:"offset,omitempty"`
}

// QueryPlan is the wire form of the planner's report for one executed
// query: the chosen access path, the index behind it, and estimated vs
// actual cardinalities. Attached to every OpQuery response so clients and
// shells can explain what the server did.
type QueryPlan struct {
	Access     string `json:"access"`          // scan, name, class, attr-eq, attr-range
	Index      string `json:"index,omitempty"` // index behind the path: class name, "Class/Role.Path", or the literal name
	Est        int    `json:"est"`             // estimated candidates from index sizes
	Candidates int    `json:"candidates"`      // candidates actually enumerated
	Matched    int    `json:"matched"`         // matches observed
	Residual   int    `json:"residual,omitempty"`
	Forced     bool   `json:"forced,omitempty"`
}

// Stats is the structured form of the server's state summary. The one-line
// string stays in Response.Stats for shells.
type Stats struct {
	Objects       int    `json:"objects"`
	Relationships int    `json:"rels"`
	Patterns      int    `json:"patterns"`
	Deleted       int    `json:"deleted"`
	Versions      int    `json:"versions"`
	SchemaVersion int    `json:"schema"`
	Generation    uint64 `json:"generation"`   // mutation generation of the snapshot
	OpenTxs       int    `json:"open_txs"`     // check-ins staged right now
	WALSegments   int    `json:"wal_segments"` // 0 for in-memory databases
	WALBytes      int64  `json:"wal_bytes"`

	// Serving-plane gauges (PR 8): the admission-control and connection
	// state of the server answering the request.
	Connections int    `json:"connections"` // open client connections
	Locks       int    `json:"locks"`       // check-out locks held across all clients
	InFlight    int    `json:"in_flight"`   // requests executing right now (admission tokens held)
	Queued      int    `json:"queued"`      // requests waiting in the bounded admission queue
	Rejected    uint64 `json:"rejected"`    // requests shed as overloaded since start
	Draining    bool   `json:"draining,omitempty"`

	// Replication gauges (PR 9), present on a follower: FollowerGen is the
	// primary generation last applied locally, FollowerLag the primary
	// generations received on the stream but not yet applied. On a
	// follower, Generation above counts local apply steps, not primary
	// generations — FollowerGen is the cross-process coordinate.
	Follower    bool   `json:"follower,omitempty"`
	FollowerGen uint64 `json:"follower_gen,omitempty"`
	FollowerLag uint64 `json:"follower_lag,omitempty"`

	// QueryPlans counts, per access path ("scan", "attr-eq", ...), the
	// query operations the server executed through that path since start —
	// the fleet-level view of what the planner decides.
	QueryPlans map[string]uint64 `json:"query_plans,omitempty"`
}

// LogChunk kinds, in stream order: one snapshot, any number of records
// chunks, one caught-up marking the end of bootstrap, then live records
// chunks until the connection dies.
const (
	LogSnapshot = "snapshot"  // store snapshot payload (bootstrap base)
	LogRecords  = "records"   // raw WAL records, log order
	LogCaughtUp = "caught-up" // bootstrap done: the follower is at the cut and may serve reads
)

// LogChunk is one frame of the replication stream an OpSubscribeLog opens.
// The subscription's response frames share the request's Seq and keep
// arriving until the connection closes or the publisher reports a terminal
// error in Response.Err (for example the follower fell behind the
// publisher's buffer and must resubscribe from a fresh snapshot).
type LogChunk struct {
	Kind     string   `json:"kind"`
	Snapshot []byte   `json:"snapshot,omitempty"` // LogSnapshot: snapshot payload; absent when the primary has none (replay starts at segment 1)
	Records  [][]byte `json:"records,omitempty"`  // LogRecords: raw WAL record payloads in log order
	Seg      uint64   `json:"seg,omitempty"`      // LogRecords during bootstrap: source segment index
	Gen      uint64   `json:"gen,omitempty"`      // primary mutation generation: the cut for bootstrap chunks, current for live chunks
}

// VersionInfo is the wire form of a saved version.
type VersionInfo struct {
	Num       string `json:"num"`
	Note      string `json:"note,omitempty"`
	DeltaSize int    `json:"delta"`
	SchemaVer int    `json:"schema"`
}

// Finding is the wire form of a completeness finding.
type Finding struct {
	Item   uint64 `json:"item"`
	Rule   string `json:"rule"`
	Detail string `json:"detail"`
}

// FailureClass is the retry decision a refusal maps onto. The zero value
// is no decision: every row of Refusals names one of the three below.
type FailureClass int

const (
	// ClassPermanent: retrying cannot help — a validation failure, an
	// unknown name, a protocol error. Surface it.
	ClassPermanent FailureClass = iota + 1
	// ClassRetry: transient pushback from this server — a held lock, a
	// check-in conflict, an admission-control rejection. Retry the same
	// connection with backoff.
	ClassRetry
	// ClassRedial: this server will never stop refusing — it is draining
	// for shutdown, or it is a read-only follower. Retry only against a
	// different endpoint: the drained server's replacement, the primary.
	ClassRedial
)

// The refusal sentinels. A plain error string loses its identity across
// the wire; the server wraps one of these and sends its row's code, and the
// client rebuilds the same value from the code, so errors.Is matches it on
// either side.
var (
	// ErrLocked: a checkout or check-in lost against another client's
	// write lock. Retryable once that client checks in or releases.
	ErrLocked = errors.New("object is checked out by another client")
	// ErrNotLocked: a check-in touched an object the client never checked
	// out. Not retryable — the client must check the object out.
	ErrNotLocked = errors.New("object is not checked out by this client")
	// ErrConflict: two concurrently staged check-ins overlapped (for
	// example both creating the same object name, or a batch reaching
	// outside its lock set into another batch's write set). Retryable:
	// re-read and re-stage the batch.
	ErrConflict = errors.New("check-in conflicted with a concurrent check-in")
	// ErrOverloaded: the server's admission control shed the request — the
	// global in-flight limit was reached and the bounded wait queue was
	// full. Retryable with backoff: nothing about the request was wrong,
	// the server just had no capacity for it right now.
	ErrOverloaded = errors.New("overloaded, request shed by admission control")
	// ErrShuttingDown: the server is draining (graceful shutdown) and
	// refuses new mutations while in-flight check-ins finish. Retryable
	// against the server's replacement once it is back.
	ErrShuttingDown = errors.New("shutting down, new mutations refused")
	// ErrNotPrimary: the server is a read-only follower and refuses
	// mutations (and lock traffic) outright. Retryable against the primary:
	// the request was well-formed, it just reached the wrong process.
	ErrNotPrimary = errors.New("read-only follower, mutations go to the primary")
)

// Refusal is one row of the error table: the code carried in
// Response.Code, the sentinel it stands for, and its retry class.
type Refusal struct {
	Code  string
	Err   error
	Class FailureClass
}

// Refusals is the error table and the only place a wire code is spelled.
// The server's error-to-code mapping, the client's code-to-sentinel and
// retry-class lookups and the server's metrics labels all read it; adding
// a code is one sentinel above and one row here.
var Refusals = []Refusal{
	{"locked", ErrLocked, ClassRetry},
	{"not-locked", ErrNotLocked, ClassPermanent},
	{"conflict", ErrConflict, ClassRetry},
	{"overloaded", ErrOverloaded, ClassRetry},
	{"shutting-down", ErrShuttingDown, ClassRedial},
	{"not-primary", ErrNotPrimary, ClassRedial},
}

// RefusalOf returns the row whose sentinel err wraps, or nil.
func RefusalOf(err error) *Refusal {
	for i := range Refusals {
		if errors.Is(err, Refusals[i].Err) {
			return &Refusals[i]
		}
	}
	return nil
}

// RefusalByCode returns the row carrying code, or nil.
func RefusalByCode(code string) *Refusal {
	for i := range Refusals {
		if Refusals[i].Code == code {
			return &Refusals[i]
		}
	}
	return nil
}

// Request is one client request frame. Seq correlates the request with its
// response: it is echoed in the response and allows the server to answer
// retrieval requests out of order. Only the hello may leave it zero. Proto
// is sent at hello to announce the client's protocol version.
type Request struct {
	Op      Op       `json:"op"`
	Seq     uint64   `json:"seq,omitempty"`
	Proto   int      `json:"proto,omitempty"` // hello only
	Names   []string `json:"names,omitempty"`
	Class   string   `json:"class,omitempty"`
	Note    string   `json:"note,omitempty"`
	Updates []Update `json:"updates,omitempty"`
	Query   *Query   `json:"query,omitempty"`
}

// Response is one server response frame. Seq echoes the request's Seq; Proto
// answers a hello's version announcement.
type Response struct {
	Seq       uint64        `json:"seq,omitempty"`
	Proto     int           `json:"proto,omitempty"` // hello only
	Err       string        `json:"err,omitempty"`
	Code      string        `json:"code,omitempty"` // a Refusals row's Code
	ClientID  string        `json:"client,omitempty"`
	Names     []string      `json:"names,omitempty"`
	Snapshots []Snapshot    `json:"snapshots,omitempty"`
	Versions  []VersionInfo `json:"versions,omitempty"`
	Findings  []Finding     `json:"findings,omitempty"`
	Version   string        `json:"version,omitempty"`
	Stats     string        `json:"stats,omitempty"`
	StatsV2   *Stats        `json:"statsv2,omitempty"`
	Objects   []Object      `json:"objects,omitempty"` // query results
	Total     int           `json:"total,omitempty"`   // query matches before paging
	Plan      *QueryPlan    `json:"plan,omitempty"`    // access plan the query executed (OpQuery)
	Log       *LogChunk     `json:"log,omitempty"`     // replication stream chunk (OpSubscribeLog)
}

// Reader decodes frames from one connection, reusing a growable payload
// buffer across frames instead of allocating one per frame. Decoded strings
// and byte slices are copies, never aliases of the buffer, so a frame's
// result stays valid after the next Read. Not safe for concurrent use; a
// connection has exactly one reading goroutine.
type Reader struct {
	r      io.Reader
	header [4]byte
	buf    []byte
	c      codec.Coder
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, c: codec.Coder{D: new(codec.Decoder)}} }

// Read decodes the next frame into v, a *Request or a *Response; a payload
// that is not exactly one value of that type is ErrBadFrame.
func (rd *Reader) Read(v any) error {
	if _, err := io.ReadFull(rd.r, rd.header[:]); err != nil {
		return err
	}
	// Bound-check before the int conversion: on a 32-bit platform a length
	// >= 2^31 would convert negative and panic the slice below.
	n32 := binary.LittleEndian.Uint32(rd.header[:])
	if n32 > MaxFrame {
		return ErrFrameTooLarge
	}
	n := int(n32)
	if cap(rd.buf) < n {
		rd.buf = make([]byte, n)
	}
	payload := rd.buf[:n]
	if _, err := io.ReadFull(rd.r, payload); err != nil {
		return err
	}
	// A long-lived connection must not pin one outlier frame's allocation
	// forever: drop the buffer when it dwarfs the frame it just carried,
	// and let the next frame size it to current traffic.
	if cap(rd.buf) > 1<<20 && n < cap(rd.buf)/8 {
		rd.buf = nil
	}
	return decodeFrame(&rd.c, payload, v)
}

// Writer encodes frames onto one connection, reusing an internal buffer and
// issuing header and payload as a single write. Not safe for concurrent
// use; serialize writers externally (the server funnels all responses
// through one writer goroutine, the client serializes sends with a mutex).
type Writer struct {
	w io.Writer
	c codec.Coder
}

// NewWriter returns a frame writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, c: codec.Coder{E: codec.NewEncoder(nil)}} }

// Encode encodes v, a *Request or a *Response, as one frame — header and
// payload — into the writer's buffer and returns it without writing it.
// The bytes are valid until the next Encode or Write.
func (wr *Writer) Encode(v any) ([]byte, error) {
	e := wr.c.E
	e.Reset()
	for range 4 {
		e.Byte(0) // header placeholder
	}
	if err := codeFrame(&wr.c, v); err != nil {
		return nil, err
	}
	frame := e.Bytes()
	if len(frame)-4 > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame, nil
}

// Write encodes v as one frame and writes it.
func (wr *Writer) Write(v any) error {
	frame, err := wr.Encode(v)
	if err != nil {
		return err
	}
	_, err = wr.w.Write(frame)
	return err
}
