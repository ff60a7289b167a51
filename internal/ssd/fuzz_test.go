package ssd

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParamsJSON fuzzes the device-file codec for the fixed-point
// property: any input that decodes (and therefore validates) must
// re-encode, and the decode→encode cycle must be idempotent from the
// first encoding on — enc(dec(b)) == enc(dec(enc(dec(b)))) byte for
// byte. This is what makes MarshalJSONParams/LoadParams round-trips lossless
// (the microsecond/MB quantization happens exactly once).
func FuzzParamsJSON(f *testing.F) {
	for _, p := range []DeviceParams{DefaultParams(), Intel750(), Samsung850Pro(), SamsungZSSD()} {
		b, err := MarshalJSONParams(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	faulted := DefaultParams()
	faulted.Faults = FaultProfile{Rate: 0.01, Seed: 7, DieFailures: 1}
	if b, err := MarshalJSONParams(faulted); err == nil {
		f.Add(b)
	}
	zoned := DefaultParams()
	zoned.HostIfcModel = IfcZNS
	zoned.ZoneSizeMB, zoned.MaxOpenZones = 128, 16
	if b, err := MarshalJSONParams(zoned); err == nil {
		f.Add(b)
	}
	streamed := DefaultParams()
	streamed.HostIfcModel = IfcMultiStream
	streamed.WriteStreams = 8
	if b, err := MarshalJSONParams(streamed); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"gc_policy":"bogus"}`))
	f.Add([]byte(`{"host_ifc":"open-channel"}`))
	f.Add([]byte(`{"read_latency_us":0.0030000000000000001}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalJSONParams(data)
		if err != nil {
			return // invalid inputs are fine; they just must not panic
		}
		b1, err := MarshalJSONParams(p)
		if err != nil {
			t.Fatalf("validated params failed to marshal: %v", err)
		}
		p2, err := UnmarshalJSONParams(b1)
		if err != nil {
			t.Fatalf("own encoding failed to decode: %v\n%s", err, b1)
		}
		b2, err := MarshalJSONParams(p2)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("decode→encode not a fixed point:\nfirst:  %s\nsecond: %s", b1, b2)
		}
	})
}

// TestUnknownPolicyNamesError pins that unknown registry names in
// device files error out instead of silently defaulting.
func TestUnknownPolicyNamesError(t *testing.T) {
	cases := []string{
		`{"gc_policy":"bogus"}`,
		`{"cache_policy":"MRU"}`,
		`{"plane_alloc_scheme":"XYZW"}`,
		`{"flash_type":"QLC9000"}`,
		`{"interface":"SCSI"}`,
		`{"host_ifc":"open-channel"}`,
	}
	for _, c := range cases {
		if _, err := UnmarshalJSONParams([]byte(c)); err == nil {
			t.Errorf("%s: expected unknown-name error", c)
		} else if !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%s: error %q does not mention the unknown name", c, err)
		}
	}
}
