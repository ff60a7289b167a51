package workload

import (
	"reflect"
	"testing"

	"autoblox/internal/trace"
)

func TestNewSourceUnknown(t *testing.T) {
	if _, err := NewSource(Category("NoSuch"), Options{}); err == nil {
		t.Fatal("expected error for unknown category")
	}
	if _, err := Factory(Category("NoSuch"), Options{}); err == nil {
		t.Fatal("expected factory error for unknown category")
	}
}

// TestSourceMatchesGenerate is the generator half of the streaming
// equivalence guarantee: for every category, draining the lazy source
// must yield the exact request sequence the materializing generator
// produces for the same options.
func TestSourceMatchesGenerate(t *testing.T) {
	for _, c := range All() {
		opt := Options{Requests: 2500, Seed: 42}
		want := MustGenerate(c, opt)
		got, err := trace.Materialize(MustSource(c, opt))
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if got.Name != want.Name {
			t.Fatalf("%s: name %q != %q", c, got.Name, want.Name)
		}
		if !reflect.DeepEqual(got.Requests, want.Requests) {
			t.Fatalf("%s: streamed requests differ from Generate", c)
		}
	}
}

// TestSourceResetDeterminism pins the Source contract the simulator's
// two-sweep (warm-up + measured) design depends on: Reset-separated
// sweeps are bit-for-bit identical, and a partially drained cursor fully
// recovers on Reset.
func TestSourceResetDeterminism(t *testing.T) {
	src := MustSource(Database, Options{Requests: 1000, Seed: 7})
	sweep := func() []trace.Request {
		var out []trace.Request
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			out = append(out, r)
		}
		return out
	}
	first := sweep()
	if len(first) != 1000 {
		t.Fatalf("sweep yielded %d requests", len(first))
	}
	src.Reset()
	second := sweep()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("Reset-separated sweeps differ")
	}
	// Partial drain, then Reset: still the same stream.
	src.Reset()
	for i := 0; i < 137; i++ {
		src.Next()
	}
	src.Reset()
	third := sweep()
	if !reflect.DeepEqual(first, third) {
		t.Fatal("Reset after partial drain diverges")
	}
}

func TestFactoryCursorsIndependent(t *testing.T) {
	f, err := Factory(KVStore, Options{Requests: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := f(), f()
	ra, _ := a.Next()
	// Drain b fully, then pull a's second request: b must not disturb a.
	for {
		if _, ok := b.Next(); !ok {
			break
		}
	}
	ra2, _ := a.Next()
	c := f()
	rc, _ := c.Next()
	c.Next()
	if ra != rc {
		t.Fatal("factory cursors disagree on the first request")
	}
	want := MustGenerate(KVStore, Options{Requests: 500, Seed: 3})
	if ra != want.Requests[0] || ra2 != want.Requests[1] {
		t.Fatal("interleaved cursors corrupted the stream")
	}
}
