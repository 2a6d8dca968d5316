// # Wire protocol
//
// This file is the protocol's one specification and its one
// implementation: the request grammar (parseRequest, request.encode), the
// reply grammar (the format* and parse*Reply pairs), the line framing both
// ends read with, and the typed errors replies map to. server.go and
// client.go hold connection state only.
//
// Framing. One request per line, one reply line per request, in request
// order. A line ends in "\n" (a preceding "\r" is ignored); fields are
// separated by blanks; verbs are case-insensitive; keys and values are
// decimal uint64. Blank lines draw no reply. A final line with no newline
// is not a frame and is never executed. Lines are capped at MaxLineBytes:
// an oversized request is answered "ERR line too long", skipped through
// its newline, and the connection stays up.
//
//	SET <key> <value>        -> STORED | OVERWRITTEN | ERR set failed
//	GET <key>                -> VALUE <value> | NOT_FOUND | ERR get failed
//	DEL <key>                -> DELETED | NOT_FOUND | ERR del failed
//	SCAN <from> <to> [limit] -> RANGE <n> k1 v1 ... [MORE] | ERR scan failed
//	MSET k1 v1 k2 v2 ..      -> STORED <n> | ERR mset failed
//	MGET k1 k2 ..            -> VALUES v1 v2 ..   (a missing key renders "-")
//	COUNT                    -> COUNT <n>         (live, task-based count)
//	STATS                    -> STATS name=value ...          (see below)
//	PING                     -> PONG
//	QUIT                     -> BYE               (then the server closes)
//	GETR <key> <maxlag>      -> RVALUE <lo> <hi> <lag> <value> | RNONE <lo> <hi> <lag>
//	                            | RVALUEP <value> | RNONEP
//	                            | ERR stale ... | ERR catching-up
//	REPL PROMOTE|LEASE <term> | REPL FOLLOW <term> <addr>
//	                         -> the ReplHandler's reply line
//	REPL HELLO ...           -> (first line only) turns the connection into
//	                            a replication stream; see internal/repl
//
// SCAN covers keys in [from, to) and returns at most limit pairs
// (DefaultScanLimit when absent, capped at MaxScanLimit); a capped reply
// ends in "MORE" and the caller resumes from the last key + 1. MGET and
// MSET take at most MaxBatchKeys keys / pairs. GETR and REPL exist only on
// a server with a ReplHandler (otherwise "ERR replication not enabled");
// the REPL line reaches the handler untouched.
//
// Errors. Every other reply starts with "ERR ":
//
//	ERR <usage or number error>       malformed request; answered before
//	                                  either gate, never executed
//	ERR unknown command <VERB>
//	ERR line too long
//	ERR overloaded retry-after=<ms>   admission gate; never executed
//	ERR readonly [primary=<addr>]     role gate (SET/DEL/MSET); never executed
//	ERR set|del|mset failed           the write did not commit (WAL or
//	                                  commit-gate failure); outcome indefinite
//	ERR get|scan failed               a paged read failed
//
// The admission gate covers GET SET DEL SCAN MGET MSET COUNT; PING, STATS,
// QUIT, GETR and REPL always pass.
//
// STATS fields, in this order; a family is absent when its subsystem is.
// Clients keep unknown fields in ServerStats.Extra, so fields may be added.
//
//	gets sets dels                      backend operation totals
//	errs toolong shed deadline_drops    server: connection errors, oversized
//	                                    lines, shed requests, reaped connections
//	shards s<i>=<gets>/<sets>/<dels>    per-shard breakdown
//	steal_attempts steal_ok steal_aborts steal_tasks imbalance
//	                                    stealing scheduler group (DESIGN.md §7)
//	il_groups il_cursors il_turns il_steps il_retired il_fallbacks il_width
//	                                    interleaved descents (DESIGN.md §9)
//	pf_streams pf_observed pf_hits pf_misses pf_induced pf_issued pf_window
//	pf_disables pf_reenables            learned prefetcher (DESIGN.md §8)
//	pg_hits pg_misses pg_evictions pg_writebacks pg_pages pg_resident
//	pg_load_p50_us pg_load_p99_us       paged value tier (DESIGN.md §10)
//	role term applied_seq ...           ReplHandler.StatsExtra (DESIGN.md §6)
package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/pager"
	"mxtasking/internal/prefetch"
)

// Protocol limits. MaxLineBytes bounds both request and reply lines; the
// scan and batch caps keep every reply comfortably under it (MaxScanLimit
// pairs of two 20-digit uint64s is ~700 KiB).
const (
	// MaxLineBytes is the longest request or reply line either side
	// accepts (excluding the newline).
	MaxLineBytes = 1 << 20

	// DefaultScanLimit is the SCAN result cap applied when the client
	// sends no explicit limit.
	DefaultScanLimit = 8192

	// MaxScanLimit bounds an explicit SCAN limit.
	MaxScanLimit = 16384

	// MaxBatchKeys bounds the keys of one MGET / pairs of one MSET.
	MaxBatchKeys = 16384
)

// verb is a request's command word.
type verb uint8

const (
	vUnknown verb = iota
	vGet
	vSet
	vDel
	vScan
	vMGet
	vMSet
	vCount
	vStats
	vPing
	vQuit
	vGetR
	vRepl
)

// verbTable is each verb's wire contract in one row: its name, whether it
// is a store operation the admission gate counts (and may shed), whether
// it mutates (and so passes the replication role gate), and its two
// malformed-request replies — wrong arity, and a number that is not a
// decimal uint64.
var verbTable = [...]struct {
	name           string
	store, mutates bool
	usage, badNum  string
}{
	vGet:   {"GET", true, false, "ERR wrong argument count", "ERR key must be uint64"},
	vSet:   {"SET", true, true, "ERR usage: SET <key> <value>", "ERR key and value must be uint64"},
	vDel:   {"DEL", true, true, "ERR wrong argument count", "ERR key must be uint64"},
	vScan:  {"SCAN", true, false, "ERR usage: SCAN <from> <to> [limit]", "ERR bounds must be uint64"},
	vMGet:  {"MGET", true, false, "ERR usage: MGET <key> [<key> ...]", "ERR keys must be uint64"},
	vMSet:  {"MSET", true, true, "ERR usage: MSET <key> <value> [<key> <value> ...]", "ERR keys and values must be uint64"},
	vCount: {name: "COUNT", store: true},
	vStats: {name: "STATS"},
	vPing:  {name: "PING"},
	vQuit:  {name: "QUIT"},
	vGetR:  {"GETR", false, false, "ERR usage: GETR <key> <maxlag>", "ERR key and maxlag must be uint64"},
	vRepl:  {name: "REPL"},
}

func (v verb) store() bool   { return verbTable[v].store }
func (v verb) mutates() bool { return verbTable[v].mutates }

// request is one parsed request line.
type request struct {
	verb  verb
	key   uint64         // GET/SET/DEL/GETR key; SCAN from
	val   uint64         // SET value; SCAN to; GETR maxlag
	limit int            // SCAN result cap, defaulted and clamped
	keys  []uint64       // MGET
	pairs []blinktree.KV // MSET
	line  string         // REPL: the raw line, for the ReplHandler
}

// parseRequest parses one non-blank request line — the only place a
// request line is split. A malformed request returns its exact "ERR ..."
// reply (req.verb is still set when the command word was recognized).
func parseRequest(line string) (req request, errReply string) {
	fields := strings.Fields(line)
	word, args := strings.ToUpper(fields[0]), fields[1:]
	for v := vGet; int(v) < len(verbTable); v++ {
		if verbTable[v].name == word {
			req.verb = v
			break
		}
	}
	info := &verbTable[req.verb]
	numbers := true // whether every number parsed
	switch req.verb {
	case vUnknown:
		return req, "ERR unknown command " + word
	case vRepl:
		req.line = line
	case vGet, vDel:
		if len(args) != 1 {
			return req, info.usage
		}
		numbers = parseUints(args, &req.key)
	case vSet, vGetR:
		if len(args) != 2 {
			return req, info.usage
		}
		numbers = parseUints(args, &req.key, &req.val)
	case vScan:
		if len(args) != 2 && len(args) != 3 {
			return req, info.usage
		}
		numbers = parseUints(args, &req.key, &req.val)
		req.limit = DefaultScanLimit
		if numbers && len(args) == 3 {
			n, err := strconv.Atoi(args[2])
			if err != nil || n <= 0 {
				return req, "ERR limit must be a positive integer"
			}
			req.limit = min(n, MaxScanLimit)
		}
	case vMGet:
		if len(args) < 1 {
			return req, info.usage
		}
		if len(args) > MaxBatchKeys {
			return req, fmt.Sprintf("ERR at most %d keys per MGET", MaxBatchKeys)
		}
		req.keys = make([]uint64, len(args))
		for i := range req.keys {
			numbers = numbers && parseUints(args[i:], &req.keys[i])
		}
	case vMSet:
		if len(args) < 2 || len(args)%2 != 0 {
			return req, info.usage
		}
		if len(args)/2 > MaxBatchKeys {
			return req, fmt.Sprintf("ERR at most %d pairs per MSET", MaxBatchKeys)
		}
		req.pairs = make([]blinktree.KV, len(args)/2)
		for i := range req.pairs {
			numbers = numbers && parseUints(args[2*i:], &req.pairs[i].Key, &req.pairs[i].Value)
		}
	}
	if !numbers {
		return req, info.badNum
	}
	return req, ""
}

func parseUint(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }

// parseUints parses args[i] into *dst[i] and reports whether all parsed.
func parseUints(args []string, dst ...*uint64) bool {
	for i, d := range dst {
		var err error
		if *d, err = parseUint(args[i]); err != nil {
			return false
		}
	}
	return true
}

// appendUints appends " n" for each n.
func appendUints(b []byte, ns ...uint64) []byte {
	for _, n := range ns {
		b = strconv.AppendUint(append(b, ' '), n, 10)
	}
	return b
}

// encode renders the request's canonical line: upper-case verb, single
// blanks. parseRequest(r.encode()) yields r again (a SCAN limit of 0 is
// omitted and comes back as DefaultScanLimit).
func (r request) encode() string {
	if r.verb == vRepl {
		return r.line
	}
	b := append(make([]byte, 0, 64), verbTable[r.verb].name...)
	switch r.verb {
	case vGet, vDel:
		b = appendUints(b, r.key)
	case vSet, vGetR:
		b = appendUints(b, r.key, r.val)
	case vScan:
		b = appendUints(b, r.key, r.val)
		if r.limit > 0 {
			b = appendUints(b, uint64(r.limit))
		}
	case vMGet:
		b = appendUints(b, r.keys...)
	case vMSet:
		for _, kv := range r.pairs {
			b = appendUints(b, kv.Key, kv.Value)
		}
	}
	return string(b)
}

// Reply formatters: the server's half of each reply grammar. The parse
// functions below them are the client's half (it has no MGET or COUNT
// call, so VALUES and COUNT replies have no parser here).

// wordUint renders "<word> <n>".
func wordUint(word string, n uint64) string {
	return string(appendUints(append(make([]byte, 0, 32), word...), n))
}

// outcome picks one of a write's three fixed replies.
func outcome(r Result, failed, found, absent string) string {
	switch {
	case r.Err != nil:
		return failed
	case r.Found:
		return found
	}
	return absent
}

// formatGet surfaces a paged store's failed read (page I/O or corruption)
// rather than lying with NOT_FOUND.
func formatGet(r Result) string {
	switch {
	case r.Err != nil:
		return "ERR get failed"
	case !r.Found:
		return "NOT_FOUND"
	}
	return wordUint("VALUE", r.Value)
}

// formatSet, formatDel and formatStored answer a write. A write whose
// Result carries an error did not commit — the WAL append or fsync failed,
// or the commit gate gave up on it (semi-sync ack timeout, demotion) — and
// must never be acknowledged as stored: the client would count on a record
// that a failover is free to lose.
func formatSet(r Result) string { return outcome(r, "ERR set failed", "OVERWRITTEN", "STORED") }
func formatDel(r Result) string { return outcome(r, "ERR del failed", "DELETED", "NOT_FOUND") }

func formatStored(n int, failed bool) string {
	if failed {
		return "ERR mset failed"
	}
	return wordUint("STORED", uint64(n))
}

func formatCount(n int) string { return wordUint("COUNT", uint64(n)) }

func formatValues(results []Result) string {
	b := append(make([]byte, 0, 6+8*len(results)), "VALUES"...)
	for _, r := range results {
		if r.Found {
			b = appendUints(b, r.Value)
		} else {
			b = append(b, " -"...)
		}
	}
	return string(b)
}

// uintField is the most one number takes in a reply: a blank and the 20
// digits of the largest uint64.
const uintField = len(" ") + 20

// formatRange sizes its builder for the longest possible reply and fills it
// in place, so a SCAN reply of any length costs one allocation.
func formatRange(res ScanResult) string {
	if res.Err != nil {
		return "ERR scan failed"
	}
	var b strings.Builder
	b.Grow(len("RANGE") + (1+2*len(res.Pairs))*uintField + len(" MORE"))
	b.WriteString("RANGE")
	writeUint(&b, uint64(len(res.Pairs)))
	for _, kv := range res.Pairs {
		writeUint(&b, kv.Key)
		writeUint(&b, kv.Value)
	}
	if res.Truncated {
		b.WriteString(" MORE")
	}
	return b.String()
}

// writeUint writes a blank and n to b, formatting n on the stack.
func writeUint(b *strings.Builder, n uint64) {
	var num [uintField]byte
	b.Write(strconv.AppendUint(append(num[:0], ' '), n, 10))
}

func formatOverloaded(retryAfter time.Duration) string {
	return "ERR overloaded retry-after=" + strconv.FormatInt(retryAfter.Milliseconds(), 10)
}

func parseGetReply(reply string) (uint64, bool, error) {
	if reply == "NOT_FOUND" {
		return 0, false, nil
	}
	if v, ok := strings.CutPrefix(reply, "VALUE "); ok {
		value, err := parseUint(v)
		return value, err == nil, err
	}
	return 0, false, replyError(reply)
}

// parseFlagReply decodes a reply that is one of two fixed words.
func parseFlagReply(reply, yes, no string) (bool, error) {
	switch reply {
	case yes:
		return true, nil
	case no:
		return false, nil
	}
	return false, replyError(reply)
}

func parseSetReply(reply string) (overwrote bool, err error) {
	return parseFlagReply(reply, "OVERWRITTEN", "STORED")
}

func parseDeleteReply(reply string) (existed bool, err error) {
	return parseFlagReply(reply, "DELETED", "NOT_FOUND")
}

func parseScanReply(reply string) (pairs []blinktree.KV, truncated bool, err error) {
	rest, ok := strings.CutPrefix(reply, "RANGE ")
	if !ok {
		return nil, false, replyError(reply)
	}
	fields := strings.Fields(rest)
	if truncated = len(fields) > 0 && fields[len(fields)-1] == "MORE"; truncated {
		fields = fields[:len(fields)-1]
	}
	var n uint64
	if len(fields) == 0 || !parseUints(fields, &n) || n > uint64(len(fields)) || uint64(len(fields)) != 1+2*n {
		return nil, false, errors.New("kvstore: malformed RANGE reply")
	}
	pairs = make([]blinktree.KV, n)
	for i := range pairs {
		if !parseUints(fields[1+2*i:], &pairs[i].Key, &pairs[i].Value) {
			return nil, false, errors.New("kvstore: malformed RANGE pair")
		}
	}
	return pairs, truncated, nil
}

// StaleValue is a bounded-staleness read's result. A replica answers with
// the window of log sequence numbers that could have produced the
// observation: SeqLo is its applied seq when the read was admitted, SeqHi
// the primary's last-known seq when it replied, Lag their gap. A primary
// answers GETR with a plain linearizable read (Primary=true, zero window).
type StaleValue struct {
	Value uint64
	Found bool
	// SeqLo..SeqHi bounds the log positions the observation may reflect.
	SeqLo, SeqHi uint64
	// Lag is the replica's estimate of how many committed records it had
	// not yet applied when it served the read.
	Lag uint64
	// Primary reports that the server was the primary and served a strict
	// read instead of a windowed one.
	Primary bool
}

// parseStaleReply decodes the GETR reply grammar:
//
//	RVALUE <lo> <hi> <lag> <value>   replica, key present
//	RNONE <lo> <hi> <lag>            replica, key absent
//	RVALUEP <value>                  primary, strict read, key present
//	RNONEP                           primary, strict read, key absent
func parseStaleReply(reply string) (StaleValue, error) {
	fields := strings.Fields(reply)
	if len(fields) == 0 {
		return StaleValue{}, replyError(reply)
	}
	nums, known := map[string]int{"RVALUE": 4, "RNONE": 3, "RVALUEP": 1, "RNONEP": 0}[fields[0]]
	if !known {
		return StaleValue{}, replyError(reply)
	}
	malformed := errors.New("kvstore: malformed " + fields[0] + " reply")
	if len(fields)-1 != nums {
		return StaleValue{}, malformed
	}
	var n [4]uint64
	for i, f := range fields[1:] {
		var err error
		if n[i], err = parseUint(f); err != nil {
			return StaleValue{}, malformed
		}
	}
	switch fields[0] {
	case "RVALUE":
		return StaleValue{SeqLo: n[0], SeqHi: n[1], Lag: n[2], Value: n[3], Found: true}, nil
	case "RNONE":
		return StaleValue{SeqLo: n[0], SeqHi: n[1], Lag: n[2]}, nil
	case "RVALUEP":
		return StaleValue{Value: n[0], Found: true, Primary: true}, nil
	}
	return StaleValue{Primary: true}, nil
}

// Typed errors for the "ERR ..." replies a client acts on.

// ErrOverloaded marks a request the server shed at its admission gate
// ("ERR overloaded retry-after=<ms>") instead of executing. A shed
// request definitely did not run, so retrying it — after the hinted
// delay — is always safe, writes included. Test with
// errors.Is(err, ErrOverloaded); the concrete type is *OverloadedError.
var ErrOverloaded = errors.New("kvstore: server overloaded")

// OverloadedError is the parsed form of the server's admission-control
// rejection, carrying its Retry-After hint.
type OverloadedError struct {
	// RetryAfter is the server's backoff hint (zero if absent).
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("kvstore: server overloaded (retry after %v)", e.RetryAfter)
}

// Is lets errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// errField recognizes an "ERR <kind> [name=value ...]" rejection line (prefix
// is "ERR <kind>") and returns the value of its name= field, "" if absent.
func errField(reply, prefix, name string) (value string, ok bool) {
	rest, ok := strings.CutPrefix(reply, prefix)
	if !ok {
		return "", false
	}
	for _, f := range strings.Fields(rest) {
		if v, found := strings.CutPrefix(f, name); found {
			value = v
		}
	}
	return value, true
}

// parseOverloadedReply recognizes the admission gate's rejection line.
func parseOverloadedReply(reply string) (retryAfter time.Duration, ok bool) {
	v, ok := errField(reply, "ERR overloaded", "retry-after=")
	if ms, err := strconv.Atoi(v); err == nil && ms >= 0 {
		retryAfter = time.Duration(ms) * time.Millisecond
	}
	return retryAfter, ok
}

// ErrReadonly marks a write rejected because the server is a replica (or a
// fenced ex-primary): "ERR readonly primary=<addr>". Like an overload
// shed, a readonly rejection definitely did not execute, so replaying it —
// against the advertised primary — is always safe. Test with
// errors.Is(err, ErrReadonly); the concrete type is *ReadonlyError.
var ErrReadonly = errors.New("kvstore: server is readonly")

// ReadonlyError is the parsed form of a readonly rejection.
type ReadonlyError struct {
	// Primary is the address the server believes can take writes (empty
	// when the server does not know — e.g. a fenced primary awaiting a
	// supervisor).
	Primary string
}

func (e *ReadonlyError) Error() string {
	if e.Primary == "" {
		return "kvstore: server is readonly (no known primary)"
	}
	return fmt.Sprintf("kvstore: server is readonly (primary %s)", e.Primary)
}

// Is lets errors.Is(err, ErrReadonly) match.
func (e *ReadonlyError) Is(target error) bool { return target == ErrReadonly }

// parseReadonlyReply recognizes the role gate's rejection line.
func parseReadonlyReply(reply string) (primary string, ok bool) {
	return errField(reply, "ERR readonly", "primary=")
}

// ErrStale marks a bounded-staleness read the replica refused: its lag
// exceeded the requested bound, or it is still bootstrapping.
var ErrStale = errors.New("kvstore: replica too stale")

// ErrWriteFailed marks a write the server executed but could not commit
// ("ERR set failed", "ERR del failed", "ERR mset failed"): the WAL append
// or fsync failed, or the commit gate gave up waiting for replica acks.
// Unlike a shed or readonly rejection the outcome is indefinite — the
// record may be in the local log and may yet survive — so, like a
// transport failure mid-write, it is never replayed automatically.
var ErrWriteFailed = errors.New("kvstore: write failed to commit")

// replyError converts a server error reply line into a typed error:
// admission-gate rejections become *OverloadedError (matching
// ErrOverloaded), role rejections *ReadonlyError (matching ErrReadonly),
// refused stale reads wrap ErrStale, uncommitted writes wrap
// ErrWriteFailed, everything else is the legacy opaque error.
func replyError(reply string) error {
	if ra, ok := parseOverloadedReply(reply); ok {
		return &OverloadedError{RetryAfter: ra}
	}
	if primary, ok := parseReadonlyReply(reply); ok {
		return &ReadonlyError{Primary: primary}
	}
	switch {
	case strings.HasPrefix(reply, "ERR stale"), strings.HasPrefix(reply, "ERR catching-up"):
		return fmt.Errorf("%w: %s", ErrStale, reply)
	case reply == "ERR set failed", reply == "ERR del failed", reply == "ERR mset failed":
		return fmt.Errorf("%w: %s", ErrWriteFailed, reply)
	}
	return errors.New("kvstore: " + reply)
}

// BackendStats is what a Backend contributes to the STATS reply. Each
// backend reports the families it has; formatStats owns their field names
// and their place in the line.
type BackendStats struct {
	// PerShard holds each shard's operation counters in shard order
	// (length 1 for a Store); the gets/sets/dels totals are their sum.
	PerShard []Stats
	// Steal is the stealing scheduler group's snapshot (steal_*,
	// imbalance); nil when the shards do not share a stealing group.
	Steal *mxtask.GroupStats
	// Interleave holds the interleaved group-descent counters (il_*).
	Interleave mxtask.InterleaveStats
	// Pager holds the paged value tier's counters (pg_*); nil when the
	// backend is not paged.
	Pager *pager.Stats
}

// Total sums the per-shard operation counters.
func (bs BackendStats) Total() Stats {
	var t Stats
	for _, ss := range bs.PerShard {
		t.Gets += ss.Gets
		t.Sets += ss.Sets
		t.Dels += ss.Dels
	}
	return t
}

// The STATS field names of each family, in wire order. formatStats and the
// client-side readers (parseStatsReply, ServerStats.Pager) share them.
const (
	opFields         = "gets sets dels"
	serverFields     = "errs toolong shed deadline_drops"
	stealFields      = "steal_attempts steal_ok steal_aborts steal_tasks"
	interleaveFields = "il_groups il_cursors il_turns il_steps il_retired il_fallbacks il_width"
	prefetchFields   = "pf_streams pf_observed pf_hits pf_misses pf_induced pf_issued pf_window pf_disables pf_reenables"
	pagerFields      = "pg_hits pg_misses pg_evictions pg_writebacks pg_pages pg_resident pg_load_p50_us pg_load_p99_us"
)

// appendFields appends " name=value" for each blank-separated name.
func appendFields(b []byte, names string, values ...uint64) []byte {
	for i, name := range strings.Fields(names) {
		b = strconv.AppendUint(append(append(append(b, ' '), name...), '='), values[i], 10)
	}
	return b
}

// formatStats renders the STATS reply: the backend's families, the
// server's own counters (m), the learned prefetcher's (pf, nil when
// unarmed), and the ReplHandler's pre-rendered tail.
func formatStats(bs BackendStats, m *ServerMetrics, pf *prefetch.Metrics, replExtra string) string {
	t := bs.Total()
	b := append(make([]byte, 0, 512), "STATS"...)
	b = appendFields(b, opFields, t.Gets, t.Sets, t.Dels)
	b = appendFields(b, serverFields, m.ConnErrors.Value(), m.TooLong.Value(), m.Shed.Value(), m.DeadlineDrops.Value())
	b = appendFields(b, "shards", uint64(len(bs.PerShard)))
	for i, ss := range bs.PerShard {
		b = fmt.Appendf(b, " s%d=%d/%d/%d", i, ss.Gets, ss.Sets, ss.Dels)
	}
	if gs := bs.Steal; gs != nil {
		b = appendFields(b, stealFields, gs.StealAttempts, gs.StealSuccesses, gs.StealAborts, gs.TasksStolen)
		b = strconv.AppendInt(append(b, " imbalance="...), gs.Imbalance, 10)
	}
	il := bs.Interleave
	b = appendFields(b, interleaveFields, il.Groups, il.Cursors, il.Turns, il.Steps, il.Retired, il.Fallbacks, il.MaxWidth)
	if pf != nil {
		b = appendFields(b, prefetchFields, pf.Streams.Load(), pf.Observed.Load(), pf.Hits.Load(), pf.Misses.Load(),
			pf.Induced.Load(), pf.Issued.Load(), pf.WindowMax(), pf.Disables.Load(), pf.Reenables.Load())
	}
	if pg := bs.Pager; pg != nil {
		b = appendFields(b, pagerFields, pg.Hits, pg.Misses, pg.Evictions, pg.Writebacks,
			pg.Pages, pg.Resident, pg.LoadP50Micros, pg.LoadP99Micros)
	}
	return string(append(b, replExtra...))
}

// ServerStats is a parsed STATS reply: aggregate wire and operation
// counters plus the per-shard operation breakdown.
type ServerStats struct {
	Gets, Sets, Dels uint64
	Errs, TooLong    uint64
	// Shed counts requests the admission gate rejected with
	// "ERR overloaded" instead of dispatching.
	Shed uint64
	// DeadlineDrops counts connections reaped by a read (idle) or write
	// deadline.
	DeadlineDrops uint64
	// PerShard holds each shard's Gets/Sets/Dels in shard order; length
	// is the server's shard count (1 for an unsharded store).
	PerShard []Stats
	// Extra holds every field this client version does not know by name
	// (for example replication's role=primary or lag=3), keyed by field
	// name with the raw value text. Servers grow new STATS fields across
	// versions; an old client must report them rather than reject the
	// whole reply. Nil when the reply had no unknown fields.
	Extra map[string]string
}

// ExtraUint parses an Extra field as a decimal counter.
func (s *ServerStats) ExtraUint(name string) (uint64, bool) {
	v, ok := s.Extra[name]
	if !ok {
		return 0, false
	}
	n, err := parseUint(v)
	return n, err == nil
}

// PagerReport is the paged value tier's STATS digest (the pg_* fields a
// paged server appends; see DESIGN.md §10).
type PagerReport struct {
	Hits, Misses          uint64
	Evictions, Writebacks uint64
	Pages, Resident       uint64
	LoadP50Us, LoadP99Us  uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no pool traffic.
func (r PagerReport) HitRate() float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// Pager extracts the paged-tier report from the Extra fields. ok is false
// when the server sent no pg_* fields at all — an old server, or one
// without a paged backend — so callers gate the whole report on it.
// Individual missing or malformed fields beyond the hits/misses pair are
// tolerated as zero rather than failing the report: servers grow pg_*
// fields across versions and a newer client must degrade, not reject.
func (s *ServerStats) Pager() (PagerReport, bool) {
	var r PagerReport
	dst := []*uint64{&r.Hits, &r.Misses, &r.Evictions, &r.Writebacks, &r.Pages, &r.Resident, &r.LoadP50Us, &r.LoadP99Us}
	present := false
	for i, name := range strings.Fields(pagerFields) {
		v, ok := s.ExtraUint(name)
		if ok {
			*dst[i] = v
		}
		present = present || (ok && i < 2) // gated on the hits/misses pair
	}
	return r, present
}

func parseStatsReply(reply string) (ServerStats, error) {
	rest, ok := strings.CutPrefix(reply, "STATS ")
	if !ok {
		return ServerStats{}, replyError(reply)
	}
	var st ServerStats
	shards := ^uint64(0) // absent
	// Known fields parse strictly; anything else — numeric or not — lands
	// in Extra so a newer server's fields survive an older client's parser.
	known := map[string]*uint64{"shards": &shards}
	dsts := []*uint64{&st.Gets, &st.Sets, &st.Dels, &st.Errs, &st.TooLong, &st.Shed, &st.DeadlineDrops}
	for i, name := range strings.Fields(opFields + " " + serverFields) {
		known[name] = dsts[i]
	}
	for _, field := range strings.Fields(rest) {
		malformed := errors.New("kvstore: malformed STATS field " + field)
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			return ServerStats{}, malformed
		}
		// A per-shard field is s<digits> (unlike "sets", "shards", "shed").
		if idx, err := strconv.ParseUint(strings.TrimPrefix(name, "s"), 10, 16); err == nil && name[0] == 's' {
			var ss Stats
			parts := strings.Split(val, "/")
			if len(parts) != 3 || !parseUints(parts, &ss.Gets, &ss.Sets, &ss.Dels) {
				return ServerStats{}, malformed
			}
			for uint64(len(st.PerShard)) <= idx {
				st.PerShard = append(st.PerShard, Stats{})
			}
			st.PerShard[idx] = ss
			continue
		}
		dst, isKnown := known[name]
		if !isKnown {
			if st.Extra == nil {
				st.Extra = make(map[string]string)
			}
			st.Extra[name] = val
			continue
		}
		var err error
		if *dst, err = parseUint(val); err != nil {
			return ServerStats{}, malformed
		}
	}
	if shards != ^uint64(0) && uint64(len(st.PerShard)) != shards {
		return ServerStats{}, errors.New("kvstore: STATS shard fields disagree with shards count")
	}
	return st, nil
}

// Line framing.

// errLineTooLong marks a request line over the reader's cap; the line has
// been consumed through its newline and the connection is resynced.
var errLineTooLong = errors.New("kvstore: request line exceeds MaxLineBytes")

// lineReader frames newline-terminated requests with an explicit length
// cap. Unlike bufio.Scanner — whose ErrTooLong is terminal — it recovers
// from an oversized line: the line is reported as errLineTooLong,
// discarded through its newline, and reading continues.
type lineReader struct {
	br   *bufio.Reader
	line []byte
	max  int
}

func newLineReader(r io.Reader, max int) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 64<<10), max: max}
}

// next returns the next line without its newline. A final unterminated
// line at EOF is NOT yielded: the newline is the protocol's frame
// terminator, and a line missing it may be a request truncated mid-wire
// (a partition or dead peer) — executing its prefix would mutate state
// from a corrupted frame (imagine "SET 1 100" arriving as "SET 1 1").
func (lr *lineReader) next() (string, error) {
	lr.line = lr.line[:0]
	for {
		frag, err := lr.br.ReadSlice('\n')
		lr.line = append(lr.line, frag...)
		switch err {
		case nil:
			if len(lr.line)-1 > lr.max {
				return "", errLineTooLong
			}
			return string(lr.line[:len(lr.line)-1]), nil
		case bufio.ErrBufferFull:
			if len(lr.line) > lr.max {
				return "", lr.discardLine()
			}
		case io.EOF:
			return "", io.EOF
		default:
			return "", err
		}
	}
}

// discardLine consumes the remainder of an oversized line so the
// connection can resync at the next newline.
func (lr *lineReader) discardLine() error {
	lr.line = lr.line[:0]
	for {
		_, err := lr.br.ReadSlice('\n')
		switch err {
		case nil, io.EOF:
			return errLineTooLong
		case bufio.ErrBufferFull:
			// Keep discarding.
		default:
			return err
		}
	}
}

// hasBufferedLine reports whether a complete request line is already
// buffered — i.e. the reader can keep consuming pipelined input without
// blocking on the network.
func (lr *lineReader) hasBufferedLine() bool {
	n := lr.br.Buffered()
	if n == 0 {
		return false
	}
	buf, err := lr.br.Peek(n)
	return err == nil && bytes.IndexByte(buf, '\n') >= 0
}

// scanFullLines is the client's framing: bufio.ScanLines minus its
// final-token leniency. A line with no terminating newline is never
// yielded, even at stream end. bufio.Scanner hands the split function
// atEOF=true on ANY read error — including an expired read deadline — so
// with the default split a deadline firing mid-reply would surface the
// reply's prefix ("VALUE" cut from "VALUE 100") as a complete line and a
// retryable timeout would masquerade as a protocol error. The newline is
// the frame terminator; without it there is no frame.
func scanFullLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line := data[:i]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return i + 1, line, nil
	}
	return 0, nil, nil
}
