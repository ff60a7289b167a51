package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"
)

// FuzzParseBlktrace fuzzes the text-format parser and pins the
// parse↔write round trip: any input ParseBlktrace accepts must survive a
// write→parse→write cycle with byte-identical second output (the written
// form is the fixed point of %.6f timestamp quantization), and the
// streaming reader must agree with the buffered parser on the sorted
// output it emits.
func FuzzParseBlktrace(f *testing.F) {
	f.Add("0.000000 100 8 R\n1.500000 200 16 W\n")
	f.Add("# workload: x\r\n\r\n0.5 100 8 W\n# c\n1.5 200 8 read\n")
	f.Add("2.0 5 4 R\n1.0 9 2 W\n") // unsorted: Parse sorts, streaming errors
	f.Add("")
	f.Add("-3.25 18446744073709551615 4294967295 WRITE\n")
	f.Add("0.000000 100 8 D\n0.5 200 64 discard\n1.0 300 8 TRIM\n")
	f.Add("0.1 100 8 W 3\n0.2 200 8 R 2\n0.3 300 16 D 1\n") // 5-field stream tags
	f.Add("0.1 1 1 W 4294967296\n")                         // stream tag out of uint32 range
	f.Add("1e300 1 1 R\n")                                  // timestamp out of range: must be rejected
	f.Add("nan 1 1 R\n")
	f.Add("0.1 1 1 R")
	f.Add("0.000000001 1 8 R\n1.999999999 2 8 W\n") // 9-digit stamps, finer than the writer's

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseBlktrace(strings.NewReader(input))
		if err != nil {
			return // invalid input is fine; not crashing is the property
		}
		// Arrivals must come out sorted whatever the input order was.
		for i := 1; i < len(tr.Requests); i++ {
			if tr.Requests[i].Arrival < tr.Requests[i-1].Arrival {
				t.Fatalf("ParseBlktrace output unsorted at %d", i)
			}
		}

		var first bytes.Buffer
		if err := WriteBlktrace(&first, tr); err != nil {
			t.Fatalf("write: %v", err)
		}
		reparsed, err := ParseBlktrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse of own output: %v\noutput:\n%s", err, first.String())
		}
		if len(reparsed.Requests) != len(tr.Requests) {
			t.Fatalf("reparse count %d != %d", len(reparsed.Requests), len(tr.Requests))
		}
		// %.6f quantizes timestamps, so compare at the fixed point: the
		// second write must reproduce the first byte for byte.
		var second bytes.Buffer
		if err := WriteBlktrace(&second, reparsed); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→parse→write not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				first.String(), second.String())
		}

		// The emitted form is sorted, so the streaming reader must accept
		// it and agree with the buffered parser exactly.
		streamed, err := Materialize(NewBlktraceSource(bytes.NewReader(first.Bytes()), tr.Name))
		if err != nil {
			t.Fatalf("streaming reader rejected sorted output: %v", err)
		}
		if !reflect.DeepEqual(streamed.Requests, reparsed.Requests) {
			t.Fatal("streaming reader differs from buffered parser on sorted input")
		}
	})
}

// refMaxTraceSeconds is the float bound the reference parser checks.
const refMaxTraceSeconds = float64(1<<62) / 1e9

// refParseBlktraceLine is the strings.Fields/strconv parser that the
// byte-level parser replaced, kept as the reference it is fuzzed
// against: the line is trimmed, split and parsed with string operations
// alone, and the timestamp goes through a float64.
func refParseBlktraceLine(lineNo int, line string) (req Request, skip bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' {
		return Request{}, true, nil
	}
	fields := strings.Fields(line)
	if len(fields) != 4 && len(fields) != 5 {
		return Request{}, false, fmt.Errorf("trace: line %d: want 4 or 5 fields, got %d", lineNo, len(fields))
	}
	ts, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad timestamp %q: %w", lineNo, fields[0], err)
	}
	if math.IsNaN(ts) || ts > refMaxTraceSeconds || ts < -refMaxTraceSeconds {
		return Request{}, false, fmt.Errorf("trace: line %d: timestamp %q out of range", lineNo, fields[0])
	}
	lba, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad lba %q: %w", lineNo, fields[1], err)
	}
	sectors, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return Request{}, false, fmt.Errorf("trace: line %d: bad length %q: %w", lineNo, fields[2], err)
	}
	var op Op
	switch strings.ToUpper(fields[3]) {
	case "R", "READ":
		op = Read
	case "W", "WRITE":
		op = Write
	case "D", "T", "DISCARD", "TRIM":
		op = Trim
	default:
		return Request{}, false, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[3])
	}
	var stream uint64
	if len(fields) == 5 {
		stream, err = strconv.ParseUint(fields[4], 10, 32)
		if err != nil {
			return Request{}, false, fmt.Errorf("trace: line %d: bad stream %q: %w", lineNo, fields[4], err)
		}
	}
	return Request{
		Arrival: time.Duration(ts * float64(time.Second)),
		LBA:     lba,
		Sectors: uint32(sectors),
		Op:      op,
		Stream:  uint32(stream),
	}, false, nil
}

// blktraceLineSeeds are lines on both sides of the grammar: timestamps
// it takes and the float forms it drops, separators past ASCII, op words
// in any case (including runes that upper-case to ASCII), wrong field
// counts and integers out of range.
var blktraceLineSeeds = []string{
	"0.000000 100 8 R",
	"1.500000 200 16 W 3",
	"-3.25 1 1 R",
	"+3.25 1 1 R",
	"-0 1 1 R",
	"1e300 1 1 R",
	"1e3 1 1 R",
	"0x1p-2 1 1 R",
	"1_000 1 1 R",
	"nan 1 1 R",
	"-Inf 1 1 R",
	"5. 1 1 W",
	".5 1 1 W",
	". 1 1 W",
	"1..5 1 1 W",
	"1.5.5 1 1 W",
	"1234567890.123456 1 1 W",
	"12345678901234567 1 1 W",
	"9007199254740992 1 1 W",
	"9007199254740993 1 1 W",
	"0.9007199254740993 1 1 W",
	"0.0000000000000000000001 1 1 W",
	"0.00000000000000000000001 1 1 W",
	"00000000000000000000000000012.5 1 1 W",
	"4611686018.427387904 1 1 W",
	"4611686018.427387905 1 1 W",
	"4611686019 1 1 W",
	"0.1 1 1 R\t7",
	"  \t0.1\v1\f1\rR  ",
	"0.1\u00851\u00a01\u2028R",
	"\u30000.1 1 1 R\u3000",
	"\xc2\x85# comment after a NEL",
	"0.1 1 1 R\xe2",
	"0.1 1 1 \xe2\x80\xa8R",
	"0.1 1 1 read",
	"0.1 1 1 Write",
	"0.1 1 1 discard 2",
	"0.1 1 1 tRiM",
	"0.1 1 1 t",
	"0.1 1 1 WR\u0131TE",
	"0.1 1 1 D\u0131\u017fCARD",
	"0.1 1 1 DISCARDS",
	"0.1 1 1 Q",
	"# a comment",
	"#0.1 1 1 R",
	"",
	"   ",
	"0.1 1 1",
	"0.1 1 1 R 1 2",
	"0.1 1 1 R 1 2 3 4 5 6 7",
	"0.1 18446744073709551615 4294967295 R 4294967295",
	"0.1 18446744073709551616 1 R",
	"0.1 1 4294967296 R",
	"0.1 1 1 R 4294967296",
	"0.1 99999999999999999999999 1 R",
	"0.1 +1 1 R",
	"0.1 -1 1 R",
	"0.1 0x10 1 R",
	"0.1 1_0 1 R",
	"0.1 0012 007 W 0003",
}

// FuzzBlktraceLineMatchesReference holds the byte-level line parser to
// its strings.Fields/strconv reference on arbitrary lines:
//   - (a) a line the parser accepts, the reference accepts with the same
//     LBA, length, op and stream; the arrival is the exact decimal
//     rounded to the nanosecond, within 1 ns of the reference's float
//     arrival (plus the float's own rounding past 2^51 ns);
//   - (b) a line the reference rejects, the parser rejects too, and on
//     an all-ASCII line its error names the same field, unless it
//     stopped earlier at a dropped timestamp;
//   - (c) a line the reference accepts and the parser rejects holds one
//     of the forms the grammar drops (see dropped);
//   - (d) skip flags agree, except on a line whose leading whitespace is
//     not ASCII.
func FuzzBlktraceLineMatchesReference(f *testing.F) {
	for _, line := range blktraceLineSeeds {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, gotSkip, gotErr := parseBlktraceLine(7, []byte(line))
		want, wantSkip, wantErr := refParseBlktraceLine(7, line)
		fail := func(why string) {
			t.Helper()
			t.Fatalf("line %q: %s\ngot  %+v skip %v err %v\nwant %+v skip %v err %v",
				line, why, got, gotSkip, gotErr, want, wantSkip, wantErr)
		}
		if gotSkip != wantSkip {
			if lead := line[:len(line)-len(strings.TrimLeftFunc(line, unicode.IsSpace))]; isASCII(lead) {
				fail("skip flags differ")
			}
			return
		}
		switch {
		case gotSkip:
		case gotErr == nil && wantErr != nil:
			fail("accepted a line the reference rejects")
		case gotErr == nil:
			if got.LBA != want.LBA || got.Sectors != want.Sectors || got.Op != want.Op || got.Stream != want.Stream {
				fail("fields differ")
			}
			ns := int64(got.Arrival)
			if exact := exactNanos(strings.Fields(line)[0]); !exact.IsInt64() || exact.Int64() != ns {
				fail(fmt.Sprintf("arrival is not the exact value %v ns", exact))
			}
			if d := ns - int64(want.Arrival); abs(d) > 1+abs(ns)>>51 {
				fail(fmt.Sprintf("arrival %d ns from the reference's", d))
			}
		case wantErr != nil:
			g, w := errField(gotErr), errField(wantErr)
			if isASCII(line) && g != w && !(g == "timestamp" && dropped(line)) {
				fail(fmt.Sprintf("error names %q, the reference's names %q", g, w))
			}
		case !dropped(line):
			fail("rejected a line the reference accepts")
		}
	})
}

// timestampGrammar matches the timestamps parseBlktraceLine accepts.
var timestampGrammar = regexp.MustCompile(`^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)$`)

// dropped reports whether a line holds a form the grammar drops but the
// reference accepts: a byte past ASCII, a timestamp outside the grammar,
// or one whose exact value is beyond ±2^62 ns.
func dropped(line string) bool {
	if !isASCII(line) {
		return true
	}
	ts := strings.Fields(line)[0]
	return !timestampGrammar.MatchString(ts) || exactNanos(ts).CmpAbs(big.NewInt(1<<62)) > 0
}

// exactNanos is a decimal timestamp in seconds rounded half away from
// zero to whole nanoseconds, computed exactly.
func exactNanos(ts string) *big.Int {
	r, ok := new(big.Rat).SetString(ts)
	if !ok {
		panic("exactNanos: not a number: " + ts)
	}
	r.Mul(r, big.NewRat(1e9, 1))
	q, m := new(big.Int).QuoRem(r.Num(), r.Denom(), new(big.Int))
	if m.Lsh(m.Abs(m), 1).Cmp(r.Denom()) >= 0 {
		q.Add(q, big.NewInt(int64(r.Num().Sign())))
	}
	return q
}

// errField is the field a line error blames: "want" for a wrong field
// count, else the field's name.
func errField(err error) string {
	_, msg, _ := strings.Cut(err.Error(), ": line 7: ")
	field, _, _ := strings.Cut(strings.TrimPrefix(msg, "bad "), " ")
	return field
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
