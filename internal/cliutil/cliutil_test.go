package cliutil

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"taco/internal/rtable"
)

func TestKindByName(t *testing.T) {
	cases := map[string]rtable.Kind{
		"sequential": rtable.Sequential,
		"seq":        rtable.Sequential,
		"tree":       rtable.BalancedTree,
		"TREE":       rtable.BalancedTree,
		"cam":        rtable.CAM,
		"trie":       rtable.Trie,
		"multibit":   rtable.Multibit,
		"lc-trie":    rtable.Multibit,
		"tiled-tcam": rtable.TiledTCAM,
		"tiledtcam":  rtable.TiledTCAM,
		"tcam":       rtable.TiledTCAM,
		"compressed": rtable.Compressed,
		"cram":       rtable.Compressed,
	}
	for in, want := range cases {
		got, err := KindByName(in)
		if err != nil || got != want {
			t.Errorf("KindByName(%q) = %v, %v", in, got, err)
		}
	}
	// Every canonical kind name parses, so the CLI vocabulary can never
	// fall behind rtable.Kinds.
	for _, k := range rtable.Kinds {
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	err := func() error { _, err := KindByName("hash"); return err }()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	// The rejection message carries the sorted valid-name list (shared
	// with rtable's strict JSON parser).
	for _, name := range rtable.KindNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q missing valid kind %q", err, name)
		}
	}
}

func TestConfigByName(t *testing.T) {
	for in, buses := range map[string]int{"1bus": 1, "3bus1fu": 3, "3BUS3FU": 3} {
		cfg, err := ConfigByName(in, rtable.CAM)
		if err != nil {
			t.Errorf("ConfigByName(%q): %v", in, err)
			continue
		}
		if cfg.Buses != buses || cfg.Table != rtable.CAM {
			t.Errorf("ConfigByName(%q) = %+v", in, cfg)
		}
	}
	cfg, err := ConfigByName("3bus3fu", rtable.Sequential)
	if err != nil || cfg.Matchers != 3 {
		t.Errorf("3bus3fu = %+v, %v", cfg, err)
	}
	if _, err := ConfigByName("5bus", rtable.CAM); err == nil {
		t.Error("unknown config accepted")
	}
}

// TestFatal runs Fatal in a child process of the test binary: it must
// print exactly "prog: err" on stderr and exit with status 1.
func TestFatal(t *testing.T) {
	if os.Getenv("CLIUTIL_FATAL_CHILD") == "1" {
		Fatal("tacotest", errors.New("boom"))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatal$")
	cmd.Env = append(os.Environ(), "CLIUTIL_FATAL_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child exited with %v, want status 1", err)
	}
	if got, want := stderr.String(), "tacotest: boom\n"; got != want {
		t.Fatalf("stderr = %q, want %q", got, want)
	}
}
