package experiments

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	tb := newTable("demo", "n", "Dmax", "rounds")
	tb.AddRow(10, 3, 42)
	tb.AddRow(100, 3, 123.4567)
	return tb
}

func TestWriteText(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "n", "Dmax", "rounds", "42", "123"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestWriteMarkdown(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "| n | Dmax | rounds |") || !strings.Contains(out, "| --- | --- | --- |") {
		t.Fatalf("markdown malformed:\n%s", out)
	}
}

func TestWriteTSV(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "n\tDmax") {
		t.Fatalf("tsv malformed:\n%s", b.String())
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := newTable("", "x")
	tb.AddRow(0.123456)
	if tb.Rows[0][0] != "0.123" {
		t.Fatalf("float format = %q", tb.Rows[0][0])
	}
}
