package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"autoblox/internal/ssd"
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

// TestConfigFileMatchesPreset writes the Intel 750 preset as a device
// file: ssdsim -config <file> must report exactly what -config intel750
// does.
func TestConfigFileMatchesPreset(t *testing.T) {
	if args := os.Getenv("SSDSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"ssdsim"}, strings.Split(args, "\n")...)
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "intel750.json")
	data, err := ssd.MarshalJSONParams(ssd.Intel750())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	report := func(config string) string {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConfigFileMatchesPreset$")
		cmd.Env = append(os.Environ(), "SSDSIM_TEST_ARGS="+strings.Join(
			[]string{"-config", config, "-workload", "Database", "-requests", "3000", "-json"}, "\n"))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ssdsim -config %s: %v", config, err)
		}
		if !strings.HasPrefix(string(out), "{") {
			t.Fatalf("ssdsim -config %s printed no JSON report:\n%s", config, out)
		}
		return string(out)
	}
	if file, preset := report(path), report("intel750"); file != preset {
		t.Fatalf("-config <file> report differs from -config intel750:\n%s\n%s", file, preset)
	}
}

// TestUsageErrorsExit2 runs ssdsim in a child process on bad flag
// values: an unknown trace format, each kind of bad -set and a -set
// that leaves the device invalid. Each must exit with status 2 and say
// why on stderr.
func TestUsageErrorsExit2(t *testing.T) {
	if args := os.Getenv("SSDSIM_USAGE_ARGS"); args != "" {
		os.Args = append([]string{"ssdsim"}, strings.Split(args, "\n")...)
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "db.trace")
	if err := os.WriteFile(path, []byte("0.000001 0 8 W\n0.000002 8 8 R\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, want string }{
		{"-format\ncsv", `unknown -format "csv"`},
		{"-set\nno_such_key=1", `"no_such_key"`},
		{"-set\nchannels", `"channels": want key=value`},
		{"-set\ngc_policy=nope", `"gc_policy": unknown gc policy "nope"`},
		{"-set\nchannels=1.5", `"channels": want int`},
		{"-set\nchannels=0", "Channels must be >= 1"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
		cmd.Env = append(os.Environ(), "SSDSIM_USAGE_ARGS="+c.args+"\n-trace\n"+path)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), c.want) {
			t.Errorf("ssdsim %q exited with %v, want status 2 and %s; output:\n%s",
				strings.ReplaceAll(c.args, "\n", " "), err, c.want, out)
		}
	}
}
