package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestStdinSpoolRemovedOnError runs ssdsim in a child process on a
// stdin trace whose second line is malformed. The run must fail with
// status 1 and still remove its spooled copy of stdin from TMPDIR.
func TestStdinSpoolRemovedOnError(t *testing.T) {
	if os.Getenv("SSDSIM_TEST_MAIN") == "1" {
		os.Args = []string{"ssdsim", "-trace", "-"}
		main()
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestStdinSpoolRemovedOnError$")
	cmd.Env = append(os.Environ(), "SSDSIM_TEST_MAIN=1", "TMPDIR="+dir)
	cmd.Stdin = strings.NewReader("0.000001 0 8 W\n0.000002 not-an-lba 8 R\n")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ssdsim exited with %v, want status 1; output:\n%s", err, out)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}
