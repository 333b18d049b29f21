package resultstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"pmm/internal/core"
	"pmm/internal/rtdbs"
)

// Object encoding. Each cached rtdbs.Results is one binary record:
// the magic and a version byte, then every field of Results in
// declaration order (nested structs and slice elements likewise):
//
//	float64               8 bytes, the little-endian IEEE-754 bits, so
//	                      NaN, ±Inf and -0 come back exactly
//	int, int32, int64,    zigzag varint
//	core.Mode
//	uint64                uvarint
//	bool                  one byte, 0 or 1
//	string                uvarint length, then the bytes
//	slice                 uvarint length+1, 0 for nil (nil and empty
//	                      stay distinct), then the elements
//	[4]float64            four float64s
//
// Decoding is strict, so a byte string decodes to at most one value and
// that value re-encodes to the same bytes: varints must be in shortest
// form, bools 0 or 1, and nothing may follow the last field. Every
// length is checked against the bytes that remain before anything is
// allocated, so a corrupt object costs at most a small multiple of its
// own size to reject and comes back as an error, never a panic.
//
// The record is binary rather than JSON because decoding JSON by
// reflection was 94% of a warm read of a filled Figure 3 store.
const (
	objectMagic   = "PMMR"
	objectVersion = 1
)

// objectEncoding names this encoding in MANIFEST.json. Open empties a
// store whose manifest names another encoding, or none.
var objectEncoding = fmt.Sprintf("%s v%d", objectMagic, objectVersion)

// encodeResults appends the binary record of res to dst.
func encodeResults(dst []byte, res *rtdbs.Results) []byte {
	c := codec{enc: true, buf: append(append(dst, objectMagic...), objectVersion)}
	c.results(res)
	return c.buf
}

// decodeResults parses one binary record. Any input that is not
// exactly one well-formed record is an error.
func decodeResults(b []byte) (*rtdbs.Results, error) {
	head := len(objectMagic) + 1
	if len(b) < head || string(b[:len(objectMagic)]) != objectMagic {
		return nil, fmt.Errorf("resultstore: object lacks the %q magic", objectMagic)
	}
	if v := b[len(objectMagic)]; v != objectVersion {
		return nil, fmt.Errorf("resultstore: object version %d, want %d", v, objectVersion)
	}
	c := codec{buf: b, off: head}
	res := new(rtdbs.Results)
	c.results(res)
	if c.err == nil && c.off < len(c.buf) {
		c.fail("trailing bytes")
	}
	if c.err != nil {
		return nil, c.err
	}
	return res, nil
}

// codec walks a Results field by field in one fixed order. Encoding
// appends each field to buf; decoding reads buf from off into the
// fields. Sharing the walk keeps the two directions from drifting
// apart. Decoding advances an offset rather than reslicing buf, so
// reading a field stores no pointer and needs no GC write barrier.
type codec struct {
	enc bool
	buf []byte
	off int   // decoding: the next unread byte of buf
	err error // decoding: the first failure
}

func (c *codec) results(r *rtdbs.Results) {
	c.str(&r.Policy)
	c.float(&r.Duration)
	integer(c, &r.Arrived)
	integer(c, &r.Terminated)
	integer(c, &r.Completed)
	integer(c, &r.Missed)
	integer(c, &r.Rejected)
	c.float(&r.MissRatio)
	c.float(&r.LossRatio)
	c.float(&r.AvgQueueDelay)
	c.float(&r.MissRatioHW90)
	slice(c, &r.PerClass, minClassResult, classResult)
	c.float(&r.AvgWait)
	c.float(&r.AvgExec)
	c.float(&r.AvgResponse)
	c.float(&r.AvgDiskUtil)
	c.float(&r.MaxDiskUtil)
	c.float(&r.CPUUtil)
	c.float(&r.AvgMPL)
	c.float(&r.AvgFluctuations)
	c.float(&r.AvgIOAmplification)
	c.float(&r.AvgExecOverSA)
	integer(c, &r.MissedNeverAdmitted)
	c.float(&r.AvgMissedIOProgress)
	for i := range r.MissBySlackQuartile {
		c.float(&r.MissBySlackQuartile[i])
	}
	c.uint(&r.LRUHits)
	c.uint(&r.LRUMisses)
	integer(c, &r.IOBreakdown.RelRead)
	integer(c, &r.IOBreakdown.SpoolWrite)
	integer(c, &r.IOBreakdown.SpoolRead)
	slice(c, &r.Events, minTermEvent, termEvent)
	slice(c, &r.PMMTrace, minTracePoint, tracePoint)
	integer(c, &r.PMMRestarts)
	integer(c, &r.BrokerExchanges)
	c.str(&r.ShardDigest)
}

func classResult(c *codec, r *rtdbs.ClassResult) {
	c.str(&r.Name)
	integer(c, &r.Terminated)
	integer(c, &r.Missed)
	c.float(&r.MissRatio)
	integer(c, &r.Rejected)
}

func termEvent(c *codec, e *rtdbs.TermEvent) {
	c.float(&e.Time)
	integer(c, &e.Class)
	c.bool(&e.Missed)
	integer(c, &e.Shard)
}

func tracePoint(c *codec, p *core.TracePoint) {
	c.float(&p.Time)
	integer(c, &p.Mode)
	integer(c, &p.Target)
	c.float(&p.Realized)
	c.float(&p.MissRatio)
	c.float(&p.Util)
	c.str(&p.Curve)
	c.bool(&p.Restart)
}

// The fewest bytes one slice element can take: the encoding of its zero
// value. A slice length is accepted only if that many elements of this
// size fit in what remains of the record.
var (
	minClassResult = minSize(classResult)
	minTermEvent   = minSize(termEvent)
	minTracePoint  = minSize(tracePoint)
)

func minSize[T any](elem func(*codec, *T)) int {
	var zero T
	c := codec{enc: true}
	elem(&c, &zero)
	return len(c.buf)
}

// fail records the first decoding error; later ones do not replace it.
func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("resultstore: corrupt object: %s at byte %d", what, c.off)
	}
}

func (c *codec) float(v *float64) {
	if c.enc {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
		return
	}
	if len(c.buf)-c.off < 8 {
		c.fail("truncated float")
		return
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
}

func (c *codec) uint(v *uint64) {
	if c.enc {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	*v = c.uvarint()
}

// uvarint reads one uvarint in shortest form: a final byte of zero
// after the first would be a redundant high group.
func (c *codec) uvarint() uint64 {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 || (n > 1 && c.buf[c.off+n-1] == 0) {
		c.fail("malformed varint")
		return 0
	}
	c.off += n
	return v
}

// integer codes any signed integer field as a zigzag varint; decoding
// rejects a value that does not fit the field's type.
func integer[T ~int | ~int32 | ~int64](c *codec, v *T) {
	if c.enc {
		c.buf = binary.AppendVarint(c.buf, int64(*v))
		return
	}
	u := c.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if int64(T(x)) != x {
		c.fail("integer out of range")
		return
	}
	*v = T(x)
}

func (c *codec) bool(v *bool) {
	if c.enc {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	if c.off == len(c.buf) || c.buf[c.off] > 1 {
		c.fail("malformed bool")
		return
	}
	*v = c.buf[c.off] == 1
	c.off++
}

func (c *codec) str(v *string) {
	if c.enc {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*v)))
		c.buf = append(c.buf, *v...)
		return
	}
	n := c.uvarint()
	if n > uint64(len(c.buf)-c.off) {
		c.fail("string longer than the object")
		return
	}
	*v = string(c.buf[c.off : c.off+int(n)])
	c.off += int(n)
}

// slice codes a slice as its length plus one (0 for nil) followed by
// its elements, each coded by elem and at least minBytes long.
func slice[T any](c *codec, s *[]T, minBytes int, elem func(*codec, *T)) {
	if c.enc {
		if *s == nil {
			c.buf = append(c.buf, 0)
			return
		}
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s))+1)
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	n := c.uvarint()
	if n == 0 || c.err != nil {
		return // nil, or the record is already corrupt
	}
	if n-1 > uint64((len(c.buf)-c.off)/minBytes) {
		c.fail("slice longer than the object")
		return
	}
	*s = make([]T, n-1)
	for i := range *s {
		elem(c, &(*s)[i])
		if c.err != nil {
			return
		}
	}
}
