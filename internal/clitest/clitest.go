// Package clitest pins a command's text output byte for byte. A
// command's test calls Golden from its own package directory, so go
// test reruns the comparison whenever the command or anything it
// imports changes.
package clitest

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the command's text golden instead of comparing with it")

// Golden builds the command in the current directory, runs it with
// args and byte-compares its stdout with the file golden. With -update
// it rewrites golden instead. The goldens are pinned on amd64 only,
// like the study fingerprints: other architectures may fuse
// multiply-adds and round differently.
func Golden(t *testing.T, golden string, args ...string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("text goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the command with")
	}
	bin := filepath.Join(t.TempDir(), "cmd")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output of %s differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(args, " "), golden, stdout.Bytes(), want)
	}
}
