package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// runArgs runs reproduce with args and returns its exit status, stdout
// and stderr.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	status := run(args, &stdout, &stderr)
	return status, stdout.String(), stderr.String()
}

// Every section has a title and a name -exp can select it by, and no
// two share a name.
func TestSectionNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range sections("", nil) {
		if s.name == "" || s.title == "" || s.run == nil {
			t.Errorf("incomplete section %+v", s)
		}
		if strings.ContainsAny(s.name, ", ") {
			t.Errorf("section %q: a name cannot hold a comma or a space", s.name)
		}
		if seen[s.name] {
			t.Errorf("section name %q appears twice", s.name)
		}
		seen[s.name] = true
	}
}

// An unknown -exp name exits 2 before running anything, and the error
// lists every name.
func TestUnknownSectionListsEveryName(t *testing.T) {
	status, stdout, stderr := runArgs("-quick", "-exp", "headline,bogus")
	if status != 2 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing run", status, stdout)
	}
	for _, name := range names(sections("", nil)) {
		if !strings.Contains(stderr, name) {
			t.Errorf("error %q does not offer %q", stderr, name)
		}
	}
}

// -exp runs the sections it names in table order, whatever order it
// lists them in.
func TestSectionsRunInTableOrder(t *testing.T) {
	status, stdout, stderr := runArgs("-quick", "-exp", "convergence,table6-1")
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	var got []string
	for _, line := range strings.Split(stdout, "\n") {
		if title, ok := strings.CutPrefix(line, "==== "); ok {
			got = append(got, strings.TrimSuffix(title, " ===="))
		}
	}
	want := []string{"§6.1/§6.2 configuration space", "control-plane convergence"}
	if !slices.Equal(got, want) {
		t.Errorf("ran %q, want %q", got, want)
	}
}

// -metrics exports the telemetry section's snapshot: it is rejected
// unless telemetry is selected, and writes FILE when it is.
func TestMetricsNeedsTelemetry(t *testing.T) {
	file := filepath.Join(t.TempDir(), "quanta.csv")
	status, stdout, stderr := runArgs("-quick", "-exp", "headline", "-metrics", "csv:"+file)
	if status != 2 || stdout != "" || !strings.Contains(stderr, "-metrics") {
		t.Errorf("-metrics without telemetry: exit %d, stdout %q, stderr %q; want 2 naming -metrics",
			status, stdout, stderr)
	}
	status, stdout, stderr = runArgs("-quick", "-exp", "telemetry", "-metrics", "csv:"+file)
	if status != 0 {
		t.Fatalf("-exp telemetry -metrics: exit %d: %s", status, stderr)
	}
	if !strings.Contains(stdout, "telemetry: csv snapshot -> "+file) {
		t.Errorf("stdout does not report the export:\n%s", stdout)
	}
	if b, err := os.ReadFile(file); err != nil || len(b) == 0 {
		t.Errorf("export file: %d bytes, %v", len(b), err)
	}
}

// A failing section exits 1 through run's return, so the deferred
// profile flush still writes the CPU profile.
func TestErrorExitFlushesProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	// Valid at 32 ports; the heavytail fabric table re-points it at 16.
	status, _, stderr := runArgs("-quick", "-exp", "heavytail",
		"-workload", "hotspot:ports=32,hot=20", "-cpuprofile", prof)
	if status != 1 || !strings.Contains(stderr, "hotspot port 20") {
		t.Fatalf("exit %d, stderr %q; want 1 and the workload error", status, stderr)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile not flushed: %v", err)
	}
}

// The docs name sections by their -exp names: every name they give is a
// section, and EXPERIMENTS.md names every section.
func TestDocsNameSections(t *testing.T) {
	all := names(sections("", nil))
	mention := regexp.MustCompile(`-exp ([a-z0-9-]+(?:,[a-z0-9-]+)*)`)
	named := map[string]bool{}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllStringSubmatch(string(b), -1) {
			for _, name := range strings.Split(m[1], ",") {
				if !slices.Contains(all, name) {
					t.Errorf("%s names -exp %q, which is no section", doc, name)
				}
				if doc == "EXPERIMENTS.md" {
					named[name] = true
				}
			}
		}
	}
	for _, name := range all {
		if !named[name] {
			t.Errorf("EXPERIMENTS.md does not say which section regenerates -exp %s", name)
		}
	}
}
