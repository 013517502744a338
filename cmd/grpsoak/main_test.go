package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// A chaos run writes one stream: the -stats file holds every episode
// record the report counts, none of them thinned by -every, beside the
// decimated per-round records.
func TestChaosEpisodesJoinTheStatsStream(t *testing.T) {
	const rounds, every = 600, 10
	path := filepath.Join(t.TempDir(), "s.jsonl")
	var out bytes.Buffer
	args := []string{"-n", "150", "-rounds", fmt.Sprint(rounds), "-static", "-join", "0", "-leave", "0",
		"-chaos", "mixed", "-chaos-until", "400", "-workers", "2", "-progress", "0",
		"-every", fmt.Sprint(every), "-stats", path}
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("grpsoak exited %d:\n%s", code, out.String())
	}
	m := regexp.MustCompile(`(\d+) episodes closed`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no episode count in the report:\n%s", out.String())
	}
	closed, _ := strconv.Atoi(m[1])

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, episodes := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if _, ok := rec["episode"]; ok {
			episodes++
		} else {
			stats++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if closed == 0 || episodes != closed {
		t.Errorf("stream holds %d episode records, the report counts %d closed", episodes, closed)
	}
	if stats != rounds/every {
		t.Errorf("stream holds %d stat records, want %d", stats, rounds/every)
	}
}

// Wake records have no stream of their own: -trace-wakes without -stats
// is a usage error.
func TestTraceWakesRequiresStats(t *testing.T) {
	if code := run([]string{"-rounds", "2", "-trace-wakes"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("-trace-wakes without -stats exited %d, want 2", code)
	}
}
