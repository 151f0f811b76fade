package eval

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"caribou/internal/dag"
	"caribou/internal/platform"
	"caribou/internal/region"
)

// Wire format of a ResultSchema payload (DESIGN.md "Durable run cache"
// has the table). Integers are canonical (shortest-form) uvarints, zigzag
// for the signed ones; floats are their IEEE-754 bits and instants their
// UTC UnixNano, both little-endian; bools are one byte, 0 or 1; a string
// is its index in the table.
//
//	magic    "CRES", version byte
//	strings  count, then length + bytes each, in order of first use
//	header   workload, seed, regions, home, warm-up days, eval days,
//	         first measured record, invoke errors
//	totals   records, executions and transfers in the whole blob
//	records  workflow, id, class, start, end, benchmarked, succeeded,
//	         executions, transfers, and the three service-count maps
//	         with keys in sorted order
//
// Every byte string has at most one decoding and every resultBlob one
// encoding: the decoder rejects what the encoder would not have written
// (a padded varint, an unused, repeated or out-of-order table entry,
// unsorted map keys, trailing bytes), so an accepted payload re-encodes
// to itself.
const (
	codecMagic   = "CRES"
	codecVersion = 3
)

// The fewest bytes one element of each counted kind occupies. A count is
// checked against the bytes that remain before anything is allocated for
// it, which bounds what a hostile payload can make the decoder allocate
// to a small multiple of its own length.
const (
	minStringBytes   = 1                   // length
	minRecordBytes   = 3 + recordFixed + 5 // workflow, id, class; two event counts, three map counts
	minExecBytes     = 2 + execFixed       // node, region
	minTransferBytes = 5 + transferFixed   // kind, four names
	minCountBytes    = 2                   // region, count

	recordFixed   = 8 + 8 + 2   // start, end, benchmarked, succeeded
	execFixed     = 8 + 4*8 + 1 // start, four floats, cold start
	transferFixed = 8 + 8       // bytes, at
)

// zeroInstant stands for the zero time.Time, whose UnixNano is undefined.
const zeroInstant = math.MinInt64

func instantOf(ns int64) time.Time {
	if ns == zeroInstant {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// blobWriter appends the body of a payload — everything after the string
// table — while interning the strings it meets.
type blobWriter struct {
	buf   []byte
	index map[string]uint64
	table []string
	keys  []region.ID // counts scratch
	err   error
}

func (w *blobWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *blobWriter) int(v int)        { w.buf = binary.AppendVarint(w.buf, int64(v)) }
func (w *blobWriter) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *blobWriter) float(f float64)  { w.u64(math.Float64bits(f)) }

func (w *blobWriter) bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	w.buf = append(w.buf, v)
}

func (w *blobWriter) str(s string) {
	i, ok := w.index[s]
	if !ok {
		i = uint64(len(w.table))
		w.index[s] = i
		w.table = append(w.table, s)
	}
	w.uvarint(i)
}

// instant writes t as UTC nanoseconds since the Unix epoch. That is exact
// for every instant the simulator produces — a UTC wall time with no
// monotonic reading — and anything else (a zone, a monotonic clock, a year
// outside 1678–2262) fails the encode instead of decoding to a different
// time.Time.
func (w *blobWriter) instant(t time.Time) {
	ns := int64(zeroInstant)
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	if instantOf(ns) != t && w.err == nil {
		w.err = fmt.Errorf("instant %v is not a UTC nanosecond count", t)
	}
	w.u64(uint64(ns))
}

// counts writes m with its keys in sorted order, so equal maps encode to
// equal bytes whatever their iteration order.
func (w *blobWriter) counts(m map[region.ID]int) {
	keys := w.keys[:0]
	for reg := range m {
		keys = append(keys, reg)
	}
	slices.Sort(keys)
	w.keys = keys
	w.uvarint(uint64(len(keys)))
	for _, reg := range keys {
		w.str(string(reg))
		w.int(m[reg])
	}
}

func (w *blobWriter) record(r *platform.InvocationRecord) {
	w.str(r.Workflow)
	w.uvarint(r.ID)
	w.str(r.InputClass)
	w.instant(r.Start)
	w.instant(r.End)
	w.bool(r.Benchmarked)
	w.bool(r.Succeeded)
	w.uvarint(uint64(len(r.Executions)))
	for i := range r.Executions {
		e := &r.Executions[i]
		w.str(string(e.Node))
		w.str(string(e.Region))
		w.instant(e.Start)
		w.float(e.DurationSec)
		w.float(e.InitSec)
		w.float(e.MemoryMB)
		w.float(e.CPUUtil)
		w.bool(e.ColdStart)
	}
	w.uvarint(uint64(len(r.Transfers)))
	for i := range r.Transfers {
		t := &r.Transfers[i]
		w.int(int(t.Kind))
		w.str(string(t.From))
		w.str(string(t.To))
		w.str(string(t.FromNode))
		w.str(string(t.ToNode))
		w.float(t.Bytes)
		w.instant(t.At)
	}
	w.counts(r.Services.SNSPublishes)
	w.counts(r.Services.KVReads)
	w.counts(r.Services.KVWrites)
}

// encodeBlob serializes blob in the wire format above.
func encodeBlob(blob *resultBlob) ([]byte, error) {
	var execs, transfers int
	for _, r := range blob.Records {
		execs += len(r.Executions)
		transfers += len(r.Transfers)
	}
	w := blobWriter{
		// Sized from the fixed-width fields; names and counts are a byte or
		// two each.
		buf:   make([]byte, 0, 64+len(blob.Records)*(minRecordBytes+8)+execs*(minExecBytes+2)+transfers*(minTransferBytes+4)),
		index: make(map[string]uint64),
	}
	w.str(blob.Workload)
	w.buf = binary.AppendVarint(w.buf, blob.Seed)
	w.uvarint(uint64(len(blob.Regions)))
	for _, reg := range blob.Regions {
		w.str(string(reg))
	}
	w.str(string(blob.Home))
	w.int(blob.WarmupDays)
	w.int(blob.EvalDays)
	w.int(blob.Start)
	w.int(blob.InvokeErrors)
	w.uvarint(uint64(len(blob.Records)))
	w.uvarint(uint64(execs))
	w.uvarint(uint64(transfers))
	for _, r := range blob.Records {
		w.record(r)
	}
	if w.err != nil {
		return nil, w.err
	}

	tableBytes := binary.MaxVarintLen64
	for _, s := range w.table {
		tableBytes += binary.MaxVarintLen64 + len(s)
	}
	out := make([]byte, 0, len(codecMagic)+1+tableBytes+len(w.buf))
	out = append(out, codecMagic...)
	out = append(out, codecVersion)
	out = binary.AppendUvarint(out, uint64(len(w.table)))
	for _, s := range w.table {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return append(out, w.buf...), nil
}

// blobReader decodes a payload. The first failure sticks: every later read
// returns a zero value, so callers check err at allocation points and at
// the end rather than after each field.
type blobReader struct {
	b   []byte
	off int
	err error

	strs []string
	// used counts the table entries referenced so far. The encoder numbers
	// strings in order of first use, so the next new index is always used.
	used int
}

func (r *blobReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.off = len(r.b)
}

func (r *blobReader) uvarint() uint64 {
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	// A multi-byte varint ending in a zero byte is a shorter one padded.
	if n <= 0 || r.b[r.off+n-1] == 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *blobReader) int64() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *blobReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads how many elements of at least min bytes each follow.
func (r *blobReader) count(min int) int {
	v := r.uvarint()
	if v > uint64((len(r.b)-r.off)/min) {
		r.fail("count %d exceeds the %d bytes that remain", v, len(r.b)-r.off)
		return 0
	}
	return int(v)
}

var zeroBytes [execFixed]byte

// fixed returns the next n <= len(zeroBytes) bytes, or zeros past the end.
func (r *blobReader) fixed(n int) []byte {
	if len(r.b)-r.off < n {
		r.fail("truncated at byte %d", r.off)
		return zeroBytes[:n]
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *blobReader) boolOf(v byte) bool {
	if v > 1 {
		r.fail("bool byte %#x", v)
	}
	return v == 1
}

func (r *blobReader) str() string {
	i := r.uvarint()
	if i >= uint64(len(r.strs)) || i > uint64(r.used) {
		r.fail("string index %d out of order or range", i)
		return ""
	}
	if i == uint64(r.used) {
		r.used++
	}
	return r.strs[i]
}

func instantAt(b []byte) time.Time { return instantOf(int64(binary.LittleEndian.Uint64(b))) }
func floatAt(b []byte) float64     { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// table reads the string table. Every string is a substring of one copy of
// the table's bytes, so a blob's names cost two allocations however many
// events repeat them.
func (r *blobReader) table() {
	n := r.count(minStringBytes)
	start := r.off
	for i := 0; i < n; i++ {
		r.off += r.count(1)
	}
	if r.err != nil {
		return
	}
	all := string(r.b[start:r.off])
	r.off = start
	r.strs = make([]string, n)
	seen := make(map[string]struct{}, n)
	for i := range r.strs {
		l := r.count(1)
		s := all[r.off-start : r.off-start+l]
		r.off += l
		if _, dup := seen[s]; dup {
			r.fail("string %q repeated in the table", s)
			return
		}
		seen[s] = struct{}{}
		r.strs[i] = s
	}
}

func (r *blobReader) counts() map[region.ID]int {
	n := r.count(minCountBytes)
	if n == 0 {
		return nil
	}
	m := make(map[region.ID]int, n)
	var prev region.ID
	for i := 0; i < n; i++ {
		reg := region.ID(r.str())
		if i > 0 && reg <= prev {
			r.fail("service counts out of order at %q", reg)
			return nil
		}
		prev = reg
		m[reg] = r.int()
	}
	return m
}

// decodeBlob parses a payload written by encodeBlob. The records share
// three slabs — one of records, one of executions, one of transfers — and
// each record's event slices are capacity-capped windows of them, so an
// append to one record's events reallocates instead of running into its
// neighbour's.
func decodeBlob(payload []byte) (*resultBlob, error) {
	r := blobReader{b: payload}
	if hdr := r.fixed(len(codecMagic) + 1); string(hdr[:len(codecMagic)]) != codecMagic || hdr[len(codecMagic)] != codecVersion {
		r.fail("not a %s version %d payload", codecMagic, codecVersion)
	}
	r.table()

	blob := &resultBlob{Workload: r.str(), Seed: r.int64()}
	if n := r.count(1); n > 0 {
		blob.Regions = make([]region.ID, n)
		for i := range blob.Regions {
			blob.Regions[i] = region.ID(r.str())
		}
	}
	blob.Home = region.ID(r.str())
	blob.WarmupDays = r.int()
	blob.EvalDays = r.int()
	blob.Start = r.int()
	blob.InvokeErrors = r.int()

	nrec := r.count(minRecordBytes)
	nexec := r.count(minExecBytes)
	ntransfer := r.count(minTransferBytes)
	if r.err != nil {
		return nil, r.err
	}
	recs := make([]platform.InvocationRecord, nrec)
	execs := make([]platform.ExecutionEvent, nexec)
	transfers := make([]platform.TransferEvent, ntransfer)
	if nrec > 0 {
		blob.Records = make([]*platform.InvocationRecord, nrec)
	}
	for i := range recs {
		rec := &recs[i]
		blob.Records[i] = rec
		rec.Workflow = r.str()
		rec.ID = r.uvarint()
		rec.InputClass = r.str()
		f := r.fixed(recordFixed)
		rec.Start = instantAt(f)
		rec.End = instantAt(f[8:])
		rec.Benchmarked = r.boolOf(f[16])
		rec.Succeeded = r.boolOf(f[17])

		if n := r.uvarint(); n > uint64(len(execs)) {
			r.fail("record %d has more executions than the blob total", i)
		} else if n > 0 {
			rec.Executions, execs = execs[:n:n], execs[n:]
		}
		for j := range rec.Executions {
			e := &rec.Executions[j]
			e.Node = dag.NodeID(r.str())
			e.Region = region.ID(r.str())
			f := r.fixed(execFixed)
			e.Start = instantAt(f)
			e.DurationSec = floatAt(f[8:])
			e.InitSec = floatAt(f[16:])
			e.MemoryMB = floatAt(f[24:])
			e.CPUUtil = floatAt(f[32:])
			e.ColdStart = r.boolOf(f[40])
		}

		if n := r.uvarint(); n > uint64(len(transfers)) {
			r.fail("record %d has more transfers than the blob total", i)
		} else if n > 0 {
			rec.Transfers, transfers = transfers[:n:n], transfers[n:]
		}
		for j := range rec.Transfers {
			t := &rec.Transfers[j]
			t.Kind = platform.TransferKind(r.int())
			t.From = region.ID(r.str())
			t.To = region.ID(r.str())
			t.FromNode = dag.NodeID(r.str())
			t.ToNode = dag.NodeID(r.str())
			f := r.fixed(transferFixed)
			t.Bytes = floatAt(f)
			t.At = instantAt(f[8:])
		}

		rec.Services.SNSPublishes = r.counts()
		rec.Services.KVReads = r.counts()
		rec.Services.KVWrites = r.counts()
		if r.err != nil {
			return nil, r.err
		}
	}
	switch {
	case r.err != nil:
		return nil, r.err
	case len(execs) != 0 || len(transfers) != 0:
		return nil, fmt.Errorf("blob totals exceed its records' events by %d executions and %d transfers", len(execs), len(transfers))
	case r.used != len(r.strs):
		return nil, fmt.Errorf("%d of %d table strings unused", len(r.strs)-r.used, len(r.strs))
	case r.off != len(r.b):
		return nil, fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	case blob.Start < 0 || blob.Start > nrec:
		return nil, fmt.Errorf("first measured record %d outside the %d records", blob.Start, nrec)
	}
	return blob, nil
}
