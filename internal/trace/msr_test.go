package trace

import (
	"strings"
	"testing"
	"time"
)

const msrSample = `128166372003061629,hm_0,1,Read,383496192,32768,551572
128166372016382155,hm_0,1,Write,2822144,4096,56280
128166372026382245,hm_0,1,Read,2825216,4096,51874
`

func TestParseMSR(t *testing.T) {
	tr, err := ParseMSR(strings.NewReader(msrSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 3 {
		t.Fatalf("requests = %d", len(tr.Requests))
	}
	r0 := tr.Requests[0]
	if r0.Arrival != 0 {
		t.Fatalf("first arrival should be rebased to 0, got %v", r0.Arrival)
	}
	if r0.Op != Read || r0.LBA != 383496192/512 || r0.Sectors != 64 {
		t.Fatalf("first request wrong: %+v", r0)
	}
	// Second arrival: (ts1-ts0) * 100ns.
	wantGap := time.Duration(128166372016382155-128166372003061629) * 100 * time.Nanosecond
	if tr.Requests[1].Arrival != wantGap {
		t.Fatalf("arrival gap = %v, want %v", tr.Requests[1].Arrival, wantGap)
	}
	if tr.Requests[1].Op != Write {
		t.Fatal("second op should be write")
	}
}

func TestParseMSRErrors(t *testing.T) {
	cases := []string{
		"1,h,1,Read,100",         // too few fields
		"x,h,1,Read,100,4096,1",  // bad ts
		"1,h,1,Erase,100,4096,1", // bad type
		"1,h,1,Read,x,4096,1",    // bad offset
		"1,h,1,Read,100,x,1",     // bad size
	}
	for _, c := range cases {
		if _, err := ParseMSR(strings.NewReader(c)); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
	// Zero-size requests are skipped, comments ignored.
	tr, err := ParseMSR(strings.NewReader("# c\n1,h,1,Read,512,0,1\n2,h,1,Write,512,4096,1\n"))
	if err != nil || len(tr.Requests) != 1 {
		t.Fatalf("skip/comment handling: %v %v", tr, err)
	}
}

// TestParseMSRUnalignedSpan pins the sector count of requests that
// straddle a sector boundary: it covers every sector the byte span
// touches, not size/512 rounded up.
func TestParseMSRUnalignedSpan(t *testing.T) {
	for _, c := range []struct {
		offset, size string
		lba          uint64
		sectors      uint32
	}{
		{"511", "2", 0, 2},     // bytes 511-512 touch sectors 0 and 1
		{"4000", "4096", 7, 9}, // bytes 4000-8095 touch sectors 7-15
		{"1024", "4096", 2, 8}, // aligned: unchanged
		{"1024", "1", 2, 1},    // inside one sector
		{"1023", "1", 1, 1},    // the last byte of a sector
		{"0", "2147483648", 0, 1 << 22},
	} {
		in := "1,h,1,Write," + c.offset + "," + c.size + ",1\n"
		tr, err := ParseMSR(strings.NewReader(in))
		if err != nil {
			t.Fatalf("offset %s size %s: %v", c.offset, c.size, err)
		}
		if r := tr.Requests[0]; r.LBA != c.lba || r.Sectors != c.sectors {
			t.Fatalf("offset %s size %s: lba %d sectors %d, want %d and %d",
				c.offset, c.size, r.LBA, r.Sectors, c.lba, c.sectors)
		}
	}
	// Spans past 2^31 sectors, or past the end of the 64-bit byte space,
	// are rejected rather than wrapped.
	for _, c := range []string{
		"1,h,1,Read,0,1099511627777,1\n",
		"1,h,1,Read,511,1099511627776,1\n",
		"1,h,1,Read,18446744073709551615,1,1\n",
		"1,h,1,Read,1,18446744073709551615,1\n",
	} {
		if _, err := ParseMSR(strings.NewReader(c)); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Fatalf("%q: err %v, want a too-large error", c, err)
		}
	}
}

func TestParseMSRSortsAndRebases(t *testing.T) {
	// Out-of-order capture.
	in := "2000,h,1,Read,1024,512,1\n1000,h,1,Read,512,512,1\n"
	tr, err := ParseMSR(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests[0].LBA != 1 || tr.Requests[0].Arrival != 0 {
		t.Fatalf("sort/rebase failed: %+v", tr.Requests[0])
	}
}

func TestComputeStats(t *testing.T) {
	tr := mkTrace(100, Read) // sequential 4KB reads, 1ms apart
	s := ComputeStats(tr)
	if s.Requests != 100 || s.ReadFraction != 1 {
		t.Fatalf("stats basics: %+v", s)
	}
	if s.Sequential < 0.99 {
		t.Fatalf("sequential fraction %g for a sequential trace", s.Sequential)
	}
	if s.MeanBytes != 4096 {
		t.Fatalf("mean bytes %g", s.MeanBytes)
	}
	if s.OfferedBps <= 0 || s.SpanBytes == 0 {
		t.Fatalf("offered/span missing: %+v", s)
	}
	if !strings.Contains(s.String(), "100 reqs") {
		t.Fatalf("String() = %q", s.String())
	}
	if ComputeStats(&Trace{}).Requests != 0 {
		t.Fatal("empty stats")
	}
}

// FuzzParseBlktrace lives in fuzz_test.go; it additionally round-trips
// accepted inputs through WriteBlktrace and the streaming reader.

func FuzzParseMSR(f *testing.F) {
	f.Add(msrSample)
	f.Add("1,h,1,Read,512,4096,1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseMSR(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, r := range tr.Requests {
			if r.Sectors == 0 {
				t.Fatal("zero-sector request emitted")
			}
			if i > 0 && r.Arrival < tr.Requests[i-1].Arrival {
				t.Fatal("unsorted output")
			}
		}
		if len(tr.Requests) > 0 && tr.Requests[0].Arrival != 0 {
			t.Fatal("not rebased")
		}
	})
}
