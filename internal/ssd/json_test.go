package ssd

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
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

// leafValues returns p's leaf fields in declaration order, the fault
// profile's included; each is settable.
func leafValues(p *DeviceParams) []reflect.Value {
	var out []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if v.Kind() != reflect.Struct {
			out = append(out, v)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			walk(v.Field(i))
		}
	}
	walk(reflect.ValueOf(p).Elem())
	return out
}

// TestSetFieldChangesOneField applies, for every ordered pair of seed
// devices and every device-file key, the second device's file value to
// the first. The result must be the first device with at most one leaf
// field changed, to the second device's value, and each leaf on which
// the two devices differ must be changed by exactly one key. Every key
// must move some field in some pair: the seeds include DefaultParams
// with every field moved one file unit (an enum to its next name, a
// bool flipped), which need not be a valid device.
func TestSetFieldChangesOneField(t *testing.T) {
	seeds := deviceFileSeeds()
	moved := DefaultParams()
	for _, f := range deviceFields {
		switch v := f.Get(&moved); {
		case f.Labels() != nil:
			f.Set(&moved, float64((int(v)+1)%len(f.Labels())))
		case f.fileType().Kind() == reflect.Bool:
			f.Set(&moved, 1-v)
		default:
			f.Set(&moved, v+1)
		}
	}
	seeds["moved"] = moved
	keysMoved := map[string]bool{}
	for an, a := range seeds {
		for bn, b := range seeds {
			if an == bn {
				continue
			}
			data, err := MarshalJSONParams(b)
			if err != nil {
				t.Fatal(err)
			}
			var file map[string]json.RawMessage
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			aLeaves, bLeaves := leafValues(&a), leafValues(&b)
			hits := make([]int, len(aLeaves))
			for _, f := range deviceFields {
				text := "0" // an omitempty field the file leaves out
				if raw, ok := file[f.key]; ok {
					text = string(raw)
					var name string
					if json.Unmarshal(raw, &name) == nil {
						text = name
					}
				}
				got, want := a, a
				if err := SetField(&got, f.key+"="+text); err != nil {
					t.Fatalf("%s with %s from %s: %v", an, f.key, bn, err)
				}
				changed := 0
				for i, v := range leafValues(&got) {
					if v.Interface() != aLeaves[i].Interface() {
						changed++
						hits[i]++
						leafValues(&want)[i].Set(bLeaves[i])
						keysMoved[f.key] = true
					}
				}
				if changed > 1 || !reflect.DeepEqual(got, want) {
					t.Errorf("%s with %s=%s from %s: got %+v, want %+v", an, f.key, text, bn, got, want)
				}
			}
			for i := range aLeaves {
				if differ := aLeaves[i].Interface() != bLeaves[i].Interface(); differ && hits[i] != 1 {
					t.Errorf("%s from %s: leaf %d set by %d keys, want 1", an, bn, i, hits[i])
				}
			}
		}
	}
	for _, f := range deviceFields {
		if !keysMoved[f.key] {
			t.Errorf("no seed pair moves %s", f.key)
		}
	}
}

// TestSetFieldErrorsNameTheKey checks that each kind of bad assignment
// returns a *FieldError naming the key and leaves the device as it was.
func TestSetFieldErrorsNameTheKey(t *testing.T) {
	for _, c := range []struct{ assignment, key string }{
		{"no_such_key=1", "no_such_key"},
		{"channels", "channels"},
		{"gc_policy=nope", "gc_policy"},
		{"channels=1.5", "channels"},
	} {
		p := Intel750()
		err := SetField(&p, c.assignment)
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Key != c.key || !strings.Contains(err.Error(), strconv.Quote(c.key)) {
			t.Errorf("SetField(%q) = %v, want a *FieldError naming %q", c.assignment, err, c.key)
		}
		if !reflect.DeepEqual(p, Intel750()) {
			t.Errorf("SetField(%q) changed the device", c.assignment)
		}
	}
}

// TestSetFieldKeepsZero checks that SetField takes a zero value as
// given, where a device file gives a lenient field DefaultParams' value.
func TestSetFieldKeepsZero(t *testing.T) {
	p := Intel750()
	if err := SetField(&p, "zone_size_mb=0"); err != nil || p.ZoneSizeMB != 0 {
		t.Fatalf("SetField(zone_size_mb=0) = %v, ZoneSizeMB %d; want nil, 0", err, p.ZoneSizeMB)
	}
}

// TestEnumNamesIgnoreCase: SetField and a device file take enum names
// in any case and store the canonical value, and the file written back
// spells each name canonically.
func TestEnumNamesIgnoreCase(t *testing.T) {
	p := Samsung850Pro()
	if err := SetField(&p, "interface=nvme"); err != nil || p.HostInterface != NVMe {
		t.Fatalf("SetField(interface=nvme) = %v, interface %v; want nil, NVMe", err, p.HostInterface)
	}
	if err := SetField(&p, "host_ifc=ZNS"); err != nil || p.HostIfcModel != IfcZNS {
		t.Fatalf("SetField(host_ifc=ZNS) = %v, host_ifc %v; want nil, zns", err, p.HostIfcModel)
	}
	want, err := MarshalJSONParams(Intel750())
	if err != nil {
		t.Fatal(err)
	}
	file := strings.Replace(string(want), `"interface": "NVMe"`, `"interface": "nvme"`, 1)
	if file == string(want) {
		t.Fatal(`Intel 750 device file has no "interface": "NVMe" line`)
	}
	got, err := UnmarshalJSONParams([]byte(file))
	if err != nil || got != Intel750() {
		t.Fatalf(`device file with "interface": "nvme" = %v, %+v; want Intel 750`, err, got)
	}
	back, err := MarshalJSONParams(got)
	if err != nil || string(back) != string(want) {
		t.Fatalf("re-encoded file differs from the canonical one:\n%s", back)
	}
}
