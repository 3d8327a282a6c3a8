package main

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// run calls a command in-process and returns what it printed.
func run(t *testing.T, cmd func([]string, io.Writer) error, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := cmd(args, &out)
	return out.String(), err
}

func mustRun(t *testing.T, cmd func([]string, io.Writer) error, args ...string) string {
	t.Helper()
	out, err := run(t, cmd, args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out
}

func writePayload(t *testing.T, dir string, n int) (string, []byte) {
	t.Helper()
	payload := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(payload)
	path := filepath.Join(dir, "payload.bin")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, payload
}

// snapshot reads every file of dir, keyed by name.
func snapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

var missingLine = regexp.MustCompile(`missing: (\d+) data blocks, (\d+) parities`)

// missing parses status's count of missing data blocks and parities.
func missing(t *testing.T, status string) (data, parities int) {
	t.Helper()
	m := missingLine.FindStringSubmatch(status)
	if m == nil {
		t.Fatalf("status printed no missing line:\n%s", status)
	}
	data, _ = strconv.Atoi(m[1])
	parities, _ = strconv.Atoi(m[2])
	return data, parities
}

// TestDamageRepairDecode drives the archive life cycle: encode, damage,
// status, a degraded decode, repair and a clean decode.
func TestDamageRepairDecode(t *testing.T) {
	tmp := t.TempDir()
	in, payload := writePayload(t, tmp, 300_000)
	dir := filepath.Join(tmp, "archive")
	out := filepath.Join(tmp, "restored.bin")

	mustRun(t, cmdEncode, "-in", in, "-dir", dir, "-block", "4096")
	if d, p := missing(t, mustRun(t, cmdStatus, "-dir", dir)); d != 0 || p != 0 {
		t.Fatalf("fresh archive reports %d data blocks and %d parities missing", d, p)
	}
	// The archive is a log of segments, not a file per block.
	if ents, _ := os.ReadDir(dir); len(ents) > 4 {
		t.Fatalf("archive directory holds %d files", len(ents))
	}

	dmg := mustRun(t, cmdDamage, "-dir", dir, "-frac", "0.3", "-seed", "7")
	if !strings.HasPrefix(dmg, "deleted ") {
		t.Fatalf("damage printed %q", dmg)
	}
	deleted, _ := strconv.Atoi(strings.Fields(dmg)[1])
	d, p := missing(t, mustRun(t, cmdStatus, "-dir", dir))
	if d == 0 || d+p != deleted {
		t.Fatalf("status reports %d data + %d parities missing, damage deleted %d", d, p, deleted)
	}

	// Before repair, a read repairs on the fly or names the cure.
	if _, err := run(t, cmdDecode, "-dir", dir, "-out", out); err != nil {
		if !strings.Contains(err.Error(), "run `aefile repair` first") {
			t.Fatalf("degraded decode: %v", err)
		}
	} else if got, _ := os.ReadFile(out); !bytes.Equal(got, payload) {
		t.Fatal("degraded decode returned different bytes")
	}

	mustRun(t, cmdRepair, "-dir", dir)
	if d, p := missing(t, mustRun(t, cmdStatus, "-dir", dir)); d != 0 || p != 0 {
		t.Fatalf("repaired archive reports %d data blocks and %d parities missing", d, p)
	}
	mustRun(t, cmdDecode, "-dir", dir, "-out", out)
	if got, _ := os.ReadFile(out); !bytes.Equal(got, payload) {
		t.Fatal("decode after repair differs from the input")
	}
}

func TestEmptyInput(t *testing.T) {
	tmp := t.TempDir()
	in, _ := writePayload(t, tmp, 0)
	dir := filepath.Join(tmp, "archive")
	out := filepath.Join(tmp, "restored.bin")
	mustRun(t, cmdEncode, "-in", in, "-dir", dir, "-block", "512")
	mustRun(t, cmdDecode, "-dir", dir, "-out", out)
	if got, err := os.ReadFile(out); err != nil || len(got) != 0 {
		t.Fatalf("decoded %d bytes (%v), want none", len(got), err)
	}
}

// TestEncodeRefusesArchive: a second encode into one directory fails and
// leaves the first archive as it was.
func TestEncodeRefusesArchive(t *testing.T) {
	tmp := t.TempDir()
	in, payload := writePayload(t, tmp, 20_000)
	dir := filepath.Join(tmp, "archive")
	out := filepath.Join(tmp, "restored.bin")
	mustRun(t, cmdEncode, "-in", in, "-dir", dir, "-block", "1024")
	before := snapshot(t, dir)

	other, _ := writePayload(t, t.TempDir(), 5_000)
	if _, err := run(t, cmdEncode, "-in", other, "-dir", dir, "-block", "512"); err == nil ||
		!strings.Contains(err.Error(), "already holds an archive") {
		t.Fatalf("re-encode: err = %v, want a refusal", err)
	}
	after := snapshot(t, dir)
	if len(after) != len(before) {
		t.Fatalf("re-encode changed the directory from %d to %d files", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("re-encode changed %s", name)
		}
	}
	mustRun(t, cmdDecode, "-dir", dir, "-out", out)
	if got, _ := os.ReadFile(out); !bytes.Equal(got, payload) {
		t.Fatal("the first archive no longer decodes to its input")
	}
}

func TestMissingArchive(t *testing.T) {
	tmp := t.TempDir()
	if _, err := run(t, cmdStatus, "-dir", filepath.Join(tmp, "nowhere")); err == nil {
		t.Fatal("status of a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(tmp, "nowhere")); !os.IsNotExist(err) {
		t.Fatalf("status created the directory it was pointed at: %v", err)
	}
	if _, err := run(t, cmdRepair, "-dir", tmp); err == nil || !strings.Contains(err.Error(), "holds no archive") {
		t.Fatalf("repair of an empty directory: err = %v", err)
	}
}
