package resultstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pmm/internal/rtdbs"
)

// simulate runs cfg to completion.
func simulate(tb testing.TB, cfg rtdbs.Config) *rtdbs.Results {
	tb.Helper()
	res, err := rtdbs.Simulate(cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// realRuns simulates short runs whose results span what the store
// holds in practice: Max (no decision trace), PMM (a decision trace and
// restarts) and a two-tenant PMM run (every event's Shard and the
// ShardDigest set).
func realRuns(tb testing.TB) map[string]*rtdbs.Results {
	tb.Helper()
	base := testConfig()
	base.Duration = 3600
	base.Classes[0].ArrivalRate = 0.08
	max := base
	max.Policy = rtdbs.PolicyConfig{Kind: rtdbs.PolicyMax}
	tenants := base
	tenants.Duration = 600
	tenants.Tenants = 2
	tenants.SyncInterval = 1
	runs := map[string]*rtdbs.Results{
		"Max":     simulate(tb, max),
		"PMM":     simulate(tb, base),
		"tenants": simulate(tb, tenants),
	}
	if len(runs["PMM"].PMMTrace) == 0 || runs["tenants"].ShardDigest == "" {
		tb.Fatal("real runs lack a PMM trace or a shard digest; lengthen them")
	}
	return runs
}

// fillDistinct sets every field reachable from v to a distinct non-zero
// value: numbers count up (signed ones alternate in sign, and all are
// large enough to need multi-byte varints), strings spell the count,
// bools are true and slices get two elements filled alike.
func fillDistinct(tb testing.TB, v reflect.Value, n *int64) {
	if !v.CanSet() {
		tb.Fatalf("%s is unexported, so no codec can store it", v.Type())
	}
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(tb, v.Field(i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(tb, v.Index(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(tb, v.Index(i), n)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		x := *n * 1_000_003
		if *n%2 == 1 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(uint64(*n) * 1_000_003)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		tb.Fatalf("fillDistinct: unhandled %s (%s); teach the codec and this test the new type", v.Type(), v.Kind())
	}
}

// filledResults returns a Results with every field set by fillDistinct.
func filledResults(tb testing.TB) *rtdbs.Results {
	var res rtdbs.Results
	var n int64
	fillDistinct(tb, reflect.ValueOf(&res).Elem(), &n)
	return &res
}

// setSlices replaces every slice field of res with empty (non-nil) or
// nil slices.
func setSlices(res *rtdbs.Results, empty bool) {
	v := reflect.ValueOf(res).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			if empty {
				f.Set(reflect.MakeSlice(f.Type(), 0, 0))
			} else {
				f.Set(reflect.Zero(f.Type()))
			}
		}
	}
}

// roundTrip encodes res, decodes it and re-encodes the result, failing
// unless decoding succeeds and both encodings are identical.
func roundTrip(t *testing.T, res *rtdbs.Results) *rtdbs.Results {
	t.Helper()
	enc := encodeResults(nil, res)
	got, err := decodeResults(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again := encodeResults(nil, got); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs: %d bytes vs %d", len(again), len(enc))
	}
	return got
}

// TestCodecRoundTripsEveryField: a Results with every field set —
// nested structs and slice elements included — decodes to an equal
// value, and nil and empty slices stay distinct. A field added to
// Results (or to a type inside it) that the codec does not learn comes
// back zero and fails this test.
func TestCodecRoundTripsEveryField(t *testing.T) {
	for _, variant := range []string{"filled", "empty slices", "nil slices"} {
		t.Run(variant, func(t *testing.T) {
			res := filledResults(t)
			switch variant {
			case "empty slices":
				setSlices(res, true)
			case "nil slices":
				setSlices(res, false)
			}
			if got := roundTrip(t, res); !reflect.DeepEqual(got, res) {
				t.Fatalf("round trip altered the result:\n got %+v\nwant %+v", got, res)
			}
		})
	}
}

// TestCodecKeepsFloatBits: floats come back bit for bit, including
// NaN payloads, the infinities and negative zero.
func TestCodecKeepsFloatBits(t *testing.T) {
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, x := range specials {
		res := filledResults(t)
		res.MissRatio = x
		res.MissBySlackQuartile[3] = x
		res.Events[1].Time = x
		res.PMMTrace[0].Util = x
		got := roundTrip(t, res)
		for _, pair := range [][2]float64{
			{got.MissRatio, x}, {got.MissBySlackQuartile[3], x},
			{got.Events[1].Time, x}, {got.PMMTrace[0].Util, x},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("float %016x came back as %016x", math.Float64bits(pair[1]), math.Float64bits(pair[0]))
			}
		}
	}
}

// TestCodecRoundTripsRealRuns: simulated results decode to equal values
// and re-encode to the same bytes.
func TestCodecRoundTripsRealRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	for name, res := range realRuns(t) {
		if got := roundTrip(t, res); !reflect.DeepEqual(got, res) {
			t.Fatalf("%s: round trip altered the result", name)
		}
	}
}

// TestDecodeRejectsEveryPrefix: a record cut short anywhere is an
// error, never a shorter result.
func TestDecodeRejectsEveryPrefix(t *testing.T) {
	enc := encodeResults(nil, filledResults(t))
	for n := 0; n < len(enc); n++ {
		if _, err := decodeResults(enc[:n]); err == nil {
			t.Fatalf("the %d-byte prefix of a %d-byte record decoded", n, len(enc))
		}
	}
}

// markedRecord encodes a Results holding one termination event whose
// time is a marker, and returns the record and the offset just past the
// marker. There the event's Class, Missed and Shard follow, one byte
// each; the event count is the byte before the marker, and the last
// byte of the record is the (empty) ShardDigest's length.
func markedRecord(t *testing.T) (rec []byte, at int) {
	t.Helper()
	marker := math.Float64frombits(0x0123_4567_89ab_cdef)
	rec = encodeResults(nil, &rtdbs.Results{Events: []rtdbs.TermEvent{{Time: marker}}})
	i := bytes.Index(rec, binary.LittleEndian.AppendUint64(nil, math.Float64bits(marker)))
	if i < 0 || bytes.Index(rec[i+1:], rec[i:i+8]) >= 0 {
		t.Fatal("marker not found exactly once")
	}
	return rec, i + 8
}

// splice returns a copy of b with b[from:to] replaced by repl.
func splice(b []byte, from, to int, repl ...byte) []byte {
	out := append(bytes.Clone(b[:from]), repl...)
	return append(out, b[to:]...)
}

// TestDecodeRejectsMalformed: every way a record can be malformed
// without being short is an error naming the problem.
func TestDecodeRejectsMalformed(t *testing.T) {
	rec, at := markedRecord(t)
	if _, err := decodeResults(rec); err != nil {
		t.Fatalf("the unaltered record: %v", err)
	}
	end := len(rec) - 1
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"magic", splice(rec, 0, 1, 'X'), "magic"},
		{"json", []byte(`{"Policy":"PMM"}`), "magic"},
		{"version", splice(rec, len(objectMagic), len(objectMagic)+1, objectVersion+1), "version"},
		{"trailing byte", append(bytes.Clone(rec), 0), "trailing"},
		{"bool 2", splice(rec, at+1, at+2, 2), "bool"},
		{"varint not shortest", splice(rec, at, at+1, 0x80, 0), "varint"},
		{"varint overflow", splice(rec, at, at+1, bytes.Repeat([]byte{0xff}, 10)...), "varint"},
		{"int32 out of range", splice(rec, at+2, at+3, binary.AppendVarint(nil, 1<<40)...), "out of range"},
		{"slice past end", splice(rec, at-9, at-8, binary.AppendUvarint(nil, 1<<40)...), "slice longer"},
		{"string past end", splice(rec, end, end+1, 5), "string longer"},
	}
	for _, c := range cases {
		_, err := decodeResults(c.b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// FuzzDecodeResults: any input either fails to decode or decodes to a
// value that re-encodes to exactly the input, and decoding never
// panics or allocates more than a small multiple of the input's size.
func FuzzDecodeResults(f *testing.F) {
	f.Add(encodeResults(nil, filledResults(f)))
	if !testing.Short() {
		runs := realRuns(f)
		for _, name := range []string{"Max", "PMM", "tenants"} {
			rec := encodeResults(nil, runs[name])
			f.Add(rec)
			for _, n := range []int{0, len(objectMagic) + 1, len(rec) / 2, len(rec) - 1} {
				f.Add(rec[:n])
			}
			f.Add(splice(rec, 0, 1, 'X'))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// The allocation count is process-wide, so a goroutine of the
		// fuzzing engine can inflate one reading: a reading over the
		// limit is retaken, and only three in a row fail.
		limit := uint64(8*len(b) + 4096)
		var res *rtdbs.Results
		var err error
		for try := 1; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err = decodeResults(b)
			runtime.ReadMemStats(&after)
			grew := after.TotalAlloc - before.TotalAlloc
			if grew <= limit {
				break
			}
			if try == 3 {
				t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
			}
		}
		if err != nil {
			return
		}
		if again := encodeResults(nil, res); !bytes.Equal(again, b) {
			t.Fatalf("decoded input re-encodes differently:\n in %x\nout %x", b, again)
		}
	})
}
