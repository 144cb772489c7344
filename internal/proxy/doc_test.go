package proxy

// The exported-symbol documentation gate: `go doc mscclpp/internal/proxy`
// must be self-explanatory, so every exported identifier needs a doc
// comment.

import (
	"strings"
	"testing"

	"mscclpp/internal/doccheck"
)

func TestExportedSymbolsDocumented(t *testing.T) {
	missing, err := doccheck.Undocumented(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("internal/proxy has undocumented exported symbols:\n  %s", strings.Join(missing, "\n  "))
	}
}
