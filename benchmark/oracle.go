package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/ycsb"
)

// The oracle checks every reply against what the benchmark itself wrote:
// values are self-describing (see keyTag), so no model of the store is
// kept except the write ledger of ycsba_durable.

func checkGet(key, value uint64, found bool) error {
	if !found {
		return fmt.Errorf("GET %d: loaded key is missing", key)
	}
	if !tagOK(key, value) {
		return fmt.Errorf("GET %d: value %#x does not belong to the key", key, value)
	}
	return nil
}

// checkSet checks a SET's reply word: an update of a loaded key overwrites,
// an insert of a fresh key does not.
func checkSet(o *op, overwrote bool) error {
	if want := o.kind == opSet; overwrote != want {
		return fmt.Errorf("SET %d: overwrote=%v, want %v", o.key, overwrote, want)
	}
	return nil
}

// maxScanLen is YCSB-E's longest scan.
const maxScanLen = 100

// scanOracle knows enough about the loaded key set to tell a short scan
// from one that ran off the end of the key space.
type scanOracle struct {
	// fullBelow is the maxScanLen-th largest loaded key: a scan starting at
	// or below it has at least maxScanLen loaded successors (inserts only
	// add keys), so it must fill its limit.
	fullBelow uint64
}

func newScanOracle(records int) scanOracle {
	top := make([]uint64, 0, maxScanLen+1) // ascending; the largest keys seen
	for id := 0; id < records; id++ {
		k := ycsb.ScrambleKey(uint64(id))
		if len(top) == maxScanLen && k <= top[0] {
			continue
		}
		i, _ := slices.BinarySearch(top, k)
		top = slices.Insert(top, i, k)
		if len(top) > maxScanLen {
			top = top[1:]
		}
	}
	if len(top) < maxScanLen {
		return scanOracle{}
	}
	return scanOracle{fullBelow: top[0]}
}

// check verifies the reply to `SCAN from +inf limit`, where from is a
// loaded key.
func (so scanOracle) check(from uint64, limit int, pairs []blinktree.KV) error {
	if len(pairs) > limit {
		return fmt.Errorf("SCAN %d limit %d: %d pairs", from, limit, len(pairs))
	}
	if len(pairs) < limit && from <= so.fullBelow {
		return fmt.Errorf("SCAN %d limit %d: short reply of %d pairs", from, limit, len(pairs))
	}
	if len(pairs) == 0 || pairs[0].Key != from {
		return fmt.Errorf("SCAN %d: reply does not start at the loaded key", from)
	}
	for i, kv := range pairs {
		if i > 0 && kv.Key <= pairs[i-1].Key {
			return fmt.Errorf("SCAN %d: keys not ascending at pair %d", from, i)
		}
		if !tagOK(kv.Key, kv.Value) {
			return fmt.Errorf("SCAN %d: pair %d value %#x does not belong to key %d", from, i, kv.Value, kv.Key)
		}
	}
	return nil
}

// checkMGet verifies a raw "VALUES v1 v2 ..." reply line (without its
// newline) against the request's keys; "-" marks a missing key.
func checkMGet(keys []uint64, reply []byte) error {
	rest, ok := bytes.CutPrefix(reply, []byte("VALUES"))
	if !ok {
		return fmt.Errorf("MGET: unexpected reply %.40q", reply)
	}
	for _, key := range keys {
		if len(rest) == 0 || rest[0] != ' ' {
			return errors.New("MGET: reply has fewer values than keys")
		}
		rest = rest[1:]
		end := bytes.IndexByte(rest, ' ')
		if end < 0 {
			end = len(rest)
		}
		value, err := strconv.ParseUint(string(rest[:end]), 10, 64)
		if err != nil {
			return fmt.Errorf("MGET: key %d: reply field %q (loaded key missing?)", key, rest[:end])
		}
		if !tagOK(key, value) {
			return fmt.Errorf("MGET: key %d: value %#x does not belong to the key", key, value)
		}
		rest = rest[end:]
	}
	if len(rest) != 0 {
		return errors.New("MGET: reply has more values than keys")
	}
	return nil
}

// writeLedger is one connection's record of the SETs it sent, kept so the
// store can be checked after it is closed and reopened.
type writeLedger struct {
	keys  []uint64         // key of write number n
	opIdx []int64          // position of write number n in the connection's request sequence
	last  map[uint64]int64 // key -> position of the connection's last write to it
}

func newWriteLedger(records int) *writeLedger {
	return &writeLedger{last: make(map[uint64]int64, records/4)}
}

func (l *writeLedger) record(key uint64, opIdx int64) {
	l.keys = append(l.keys, key)
	l.opIdx = append(l.opIdx, opIdx)
	l.last[key] = opIdx
}

// checkRecovered judges the value a reopened store holds for a loaded key.
// Every SET sent was acknowledged before the store was closed, so:
//
//   - the value must be the loaded one or one some connection wrote to this
//     very key, and the loaded one only if nobody wrote the key;
//   - it must not be a write its own connection later replaced. Request j
//     of a connection is sent only after request j-depth was acknowledged,
//     so a write at position i is surely older than one at position
//     >= i+depth; closer ones were in flight together and may apply in
//     either order.
//
// For a key written by exactly one connection this pins the value to that
// connection's last acknowledged write; for a key written by several, to
// one of their last writes.
func checkRecovered(key, value uint64, found bool, ledgers []*writeLedger, depth int) error {
	if err := checkGet(key, value, found); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	conn, writeNo, written := decodeWriter(value)
	if !written {
		for c, l := range ledgers {
			if _, ok := l.last[key]; ok {
				return fmt.Errorf("after reopen: key %d holds the loaded value but connection %d's SET was acknowledged", key, c)
			}
		}
		return nil
	}
	if conn < 0 || conn >= len(ledgers) || int(writeNo) >= len(ledgers[conn].keys) || ledgers[conn].keys[writeNo] != key {
		return fmt.Errorf("after reopen: key %d holds %#x, which nobody wrote to it", key, value)
	}
	l := ledgers[conn]
	if l.last[key]-l.opIdx[writeNo] >= int64(depth) {
		return fmt.Errorf("after reopen: key %d holds connection %d's write %d, replaced by a later acknowledged write", key, conn, writeNo)
	}
	return nil
}

// digits is the length of v printed in decimal.
func digits(v uint64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// Reply sizes in bytes including the newline, recomputed from the decoded
// reply because kvstore.Client does not expose the bytes it read.
func getReplyBytes(value uint64) int { return len("VALUE ") + digits(value) + 1 }

func setReplyBytes(overwrote bool) int {
	if overwrote {
		return len("OVERWRITTEN\n")
	}
	return len("STORED\n")
}

func scanReplyBytes(pairs []blinktree.KV, truncated bool) int {
	n := len("RANGE ") + digits(uint64(len(pairs))) + 1
	for _, kv := range pairs {
		n += 2 + digits(kv.Key) + digits(kv.Value)
	}
	if truncated {
		n += len(" MORE")
	}
	return n
}
