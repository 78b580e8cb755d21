package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fourbit/internal/serve"
)

// snapshotJSON is the server's whole state as one comparable blob.
func snapshotJSON(t *testing.T, srv *serve.Server) string {
	t.Helper()
	snaps, err := srv.SnapshotAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestSnapshotDirAtomicWrites: a written snapshot directory holds exactly
// one <name>.json per instance and no temp files, and restores into a
// server identical to the one written. A write that fails, or dies before
// its rename, leaves the previous <name>.json in place.
func TestSnapshotDirAtomicWrites(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	for _, name := range []string{"a", "b"} {
		post("/v1/instances", fmt.Sprintf(`{"name":%q,"kind":"4bit","self":0,"seed":7}`, name))
		var lines strings.Builder
		for i := 1; i <= 20; i++ {
			fmt.Fprintf(&lines, `{"ev":"beacon","at":%d,"src":5,"seq":%d,"lqi":110,"white":true,"links":[{"addr":0,"q":200}]}`+"\n", i*1_000_000, i)
		}
		post("/v1/instances/"+name+"/events", lines.String())
	}

	dir := t.TempDir()
	if n, err := writeSnapshotDir(srv, context.Background(), dir); err != nil || n != 2 {
		t.Fatalf("writeSnapshotDir = %d, %v; want 2 instances", n, err)
	}
	if got := strings.Join(dirNames(t, dir), " "); got != "a.json b.json" {
		t.Fatalf("snapshot dir holds %q, want exactly a.json b.json", got)
	}
	restored := serve.NewServer(serve.Options{})
	if n, err := restoreSnapshotDir(restored, dir); err != nil || n != 2 {
		t.Fatalf("restoreSnapshotDir = %d, %v; want 2 instances", n, err)
	}
	if want, got := snapshotJSON(t, srv), snapshotJSON(t, restored); got != want {
		t.Fatalf("restored server differs:\nwritten:  %s\nrestored: %s", want, got)
	}

	// A write killed between temp write and rename leaves only its temp
	// file behind: restore must skip it and load the previous snapshot.
	prev, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".a.json.tmp-1"), prev[:len(prev)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	again := serve.NewServer(serve.Options{})
	if n, err := restoreSnapshotDir(again, dir); err != nil || n != 2 {
		t.Fatalf("restore beside a torn temp file = %d, %v; want the 2 previous snapshots", n, err)
	}

	// A write that fails outright — here the temp sibling's name exceeds
	// the file-name limit — reports the error, leaves no temp file, and
	// leaves the previous file byte-identical.
	long := filepath.Join(dir, strings.Repeat("n", 245)+".json")
	if err := os.WriteFile(long, prev, 0o644); err != nil {
		t.Skipf("file system refuses a 250-byte name: %v", err)
	}
	before := len(dirNames(t, dir))
	if err := writeFileAtomic(long, []byte("{}")); err == nil {
		t.Fatal("writeFileAtomic succeeded where its temp file cannot be named")
	}
	if got, err := os.ReadFile(long); err != nil || string(got) != string(prev) {
		t.Fatalf("failed write changed the previous file (err %v)", err)
	}
	if after := len(dirNames(t, dir)); after != before {
		t.Fatalf("failed write left %d stray file(s)", after-before)
	}
}
