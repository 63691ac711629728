package engine

import (
	"os"
	"strings"
	"testing"
)

// TestExecutionDocExamples extracts every ```sql block from
// docs/EXECUTION.md and executes the statements in document order
// against a fresh engine — once on the default vectorized executor and
// once with it disabled, since the handbook's core claim is that both
// models run every example identically.
func TestExecutionDocExamples(t *testing.T) {
	data, err := os.ReadFile("../../docs/EXECUTION.md")
	if err != nil {
		t.Fatal(err)
	}
	var script strings.Builder
	inSQL := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "```sql"):
			inSQL = true
		case strings.HasPrefix(line, "```"):
			inSQL = false
		case inSQL:
			script.WriteString(line)
			script.WriteByte('\n')
		}
	}
	if script.Len() == 0 {
		t.Fatal("no ```sql blocks found in docs/EXECUTION.md")
	}
	for _, mode := range []struct {
		name string
		row  bool
	}{
		{"vectorized", false},
		{"row", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := New()
			e.rowReference = mode.row
			defer e.Close()
			ran := 0
			for _, stmt := range strings.Split(script.String(), ";") {
				stmt = strings.TrimSpace(stmt)
				if stmt == "" {
					continue
				}
				ran++
				upper := strings.ToUpper(stmt)
				if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "EXPLAIN") ||
					strings.HasPrefix(upper, "(") {
					if _, err := e.Query(stmt); err != nil {
						t.Fatalf("doc example failed: %v\n%s", err, stmt)
					}
					continue
				}
				if err := e.Exec(stmt); err != nil {
					t.Fatalf("doc example failed: %v\n%s", err, stmt)
				}
			}
			if ran < 12 {
				t.Fatalf("only %d statements extracted — fences changed?", ran)
			}
		})
	}
}
