package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayRejectsUnappliedChoices: -replay exits 0 on a committed
// certificate, and 1 on the same certificate with its thread renamed,
// whose one choice then applies nowhere.
func TestReplayRejectsUnappliedChoices(t *testing.T) {
	good := filepath.Join("..", "..", "internal", "explore", "testdata", "alert-broken.cert.json")
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	c, err := parse(t, "-replay", good)
	if err != nil {
		t.Fatal(err)
	}
	if code := runReplay(c); code != 0 {
		t.Fatalf("replay of %s exited %d, want 0", good, code)
	}
	stale := strings.Replace(string(data), `"thread": "`, `"thread": "renamed-`, 1)
	if stale == string(data) {
		t.Fatal("the certificate names no thread")
	}
	path := filepath.Join(t.TempDir(), "stale.cert.json")
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err = parse(t, "-replay", path); err != nil {
		t.Fatal(err)
	}
	if code := runReplay(c); code != 1 {
		t.Fatalf("replay of a certificate with a renamed thread exited %d, want 1", code)
	}
}
