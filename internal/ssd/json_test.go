package ssd

import (
	"os"
	"path/filepath"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	for _, p := range []DeviceParams{Intel750(), Samsung850Pro(), SamsungZSSD(), DefaultParams()} {
		blob, err := MarshalJSONParams(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalJSONParams(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
		}
	}
}

func TestJSONFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.json")
	data, err := MarshalJSONParams(SamsungZSSD())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != SamsungZSSD() {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadParams(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestJSONRejectsBadValues(t *testing.T) {
	cases := []string{
		`{`, // malformed
		`{"flash_type":"QLC"}`,
		`{"flash_type":"MLC","interface":"SCSI"}`,
		`{"flash_type":"MLC","cache_policy":"MRU"}`,
		`{"flash_type":"MLC","gc_policy":"oracle"}`,
		`{"flash_type":"MLC","plane_alloc_scheme":"ZZZZ"}`,
		`{"flash_type":"MLC","channels":0}`, // fails Validate
	}
	for _, c := range cases {
		if _, err := UnmarshalJSONParams([]byte(c)); err == nil {
			t.Fatalf("expected error for %s", c)
		}
	}
}

func TestJSONDefaultsAreLenient(t *testing.T) {
	// Empty enum fields pick sensible defaults; everything else must be
	// given explicitly (Validate catches omissions).
	blob, _ := MarshalJSONParams(DefaultParams())
	p, err := UnmarshalJSONParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if p.FlashType != MLC {
		t.Fatal("unexpected flash type")
	}
}
