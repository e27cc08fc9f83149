package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// fabsim runs only the -topology fabric: without it, fabsim exits 2
// before simulating anything, and the message names -topology and
// points at reproduce, which runs the experiment suite.
func TestTopologyRequired(t *testing.T) {
	for _, args := range [][]string{nil, {"-full"}, {"-engine", "ref"}, {"-faults", "killchip@100:c1"}} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		status := run(args)
		os.Stderr = stderr
		w.Close()
		msg, _ := io.ReadAll(r)
		if status != 2 {
			t.Errorf("fabsim %q: exit %d, want 2", args, status)
		}
		for _, want := range []string{"-topology", "reproduce"} {
			if !strings.Contains(string(msg), want) {
				t.Errorf("fabsim %q: message %q does not name %s", args, msg, want)
			}
		}
	}
}
