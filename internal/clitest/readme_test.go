package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeFlagTables: every flag a README flag-table row lists for a tool
// exists in that tool's -h output, so the tables cannot drift from the
// binaries. A row is `| `tool`[, `tool`…] | `-flag …`[, `-flag …`…] | …`.
func TestReadmeFlagTables(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	backticked := regexp.MustCompile("`([^`]+)`")
	help := map[string]string{}
	rows := 0
	for i, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "| `") || len(cells) < 4 {
			continue
		}
		var tools, flags []string
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			tools = append(tools, m[1])
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
			if name, _, _ := strings.Cut(m[1], " "); strings.HasPrefix(name, "-") {
				flags = append(flags, name)
			}
		}
		if len(flags) == 0 {
			continue
		}
		rows++
		for _, tool := range tools {
			h, ok := help[tool]
			if !ok {
				// -h exits 0 or 2 depending on the tool; only the text counts.
				out, _ := exec.Command(filepath.Join(binDir, tool), "-h").CombinedOutput()
				h = string(out)
				help[tool] = h
			}
			for _, flag := range flags {
				if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(flag) + `(\s|$)`).MatchString(h) {
					t.Errorf("README.md:%d lists %s %s, which `%s -h` does not have", i+1, tool, flag, tool)
				}
			}
		}
	}
	if rows < 30 {
		t.Fatalf("found %d README flag rows; the table format changed?", rows)
	}
}
