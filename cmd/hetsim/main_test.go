package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs hetsim's own main instead of the tests when the test
// binary is re-executed as the command (runHetsim).
func TestMain(m *testing.M) {
	if os.Getenv("HETSIM_TEST_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runHetsim runs hetsim with args in a child process and returns its exit
// code, stdout and stderr.
func runHetsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HETSIM_TEST_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("hetsim %v: %v", args, err)
	return 0, "", ""
}

// TestTinyFullRefused: -tiny with -full is refused before any experiment
// runs, with exit 2 and a message naming both flags.
func TestTinyFullRefused(t *testing.T) {
	code, stdout, stderr := runHetsim(t, "-exp", "fig13", "-tiny", "-full")
	if code != 2 {
		t.Errorf("exit code %d, want 2 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "-tiny") || !strings.Contains(stderr, "-full") {
		t.Errorf("stderr %q names neither flag or only one", stderr)
	}
	if stdout != "" {
		t.Errorf("an experiment ran: stdout %q", stdout)
	}
}
