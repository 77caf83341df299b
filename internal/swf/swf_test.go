package swf

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `; Computer: Test Machine
; MaxNodes: 64
1 0 10 3600 32 -1 -1 32 7200 -1 1 3 4 -1 1 -1 -1 -1
2 60 0 120 8 1.5 -1 8 600 -1 1 5 6 -1 1 -1 -1 -1

3 3600 -1 -1 16 -1 -1 16 900 -1 0 7 8 -1 2 -1 -1 -1
`

func TestRead(t *testing.T) {
	log, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Header) != 2 {
		t.Fatalf("header lines = %d, want 2", len(log.Header))
	}
	if len(log.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(log.Jobs))
	}
	j := log.Jobs[0]
	if j.ID != 1 || j.Submit != 0 || j.Wait != 10 || j.Runtime != 3600 ||
		j.UsedProcs != 32 || j.ReqProcs != 32 || j.ReqTime != 7200 ||
		j.Status != 1 || j.UserID != 3 || j.QueueID != 1 {
		t.Fatalf("job 1 parsed wrong: %+v", j)
	}
	if log.Jobs[1].AvgCPUTime != 1.5 {
		t.Fatalf("AvgCPUTime = %v, want 1.5", log.Jobs[1].AvgCPUTime)
	}
	if log.Jobs[2].Runtime != -1 {
		t.Fatalf("unknown runtime = %v, want -1", log.Jobs[2].Runtime)
	}
}

func TestProcs(t *testing.T) {
	if got := (Job{ReqProcs: 16, UsedProcs: 12}).Procs(); got != 16 {
		t.Errorf("Procs = %d, want 16", got)
	}
	if got := (Job{ReqProcs: -1, UsedProcs: 12}).Procs(); got != 12 {
		t.Errorf("Procs fallback = %d, want 12", got)
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"1 2 3\n",
		"1 0 10 3600 32 -1 -1 32 7200 -1 1 3 4 -1 1 -1 -1 x\n",
	}
	for _, in := range bad {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q): expected error", in)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	log, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(log.Jobs, back.Jobs) {
		t.Fatalf("round trip changed jobs:\n%+v\nvs\n%+v", log.Jobs, back.Jobs)
	}
	if !reflect.DeepEqual(log.Header, back.Header) {
		t.Fatalf("round trip changed header")
	}
}

func TestSaveLoad(t *testing.T) {
	log, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(log.Jobs) {
		t.Fatalf("loaded %d jobs, want %d", len(back.Jobs), len(log.Jobs))
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.swf")); err == nil {
		t.Error("loading missing file should fail")
	}
}
