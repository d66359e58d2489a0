package lint

import (
	"strings"
	"testing"
)

const servePath = "tsplit/internal/serve"

// TestServeConcurrencyContract pins the serving layer to the lint
// suite the same way core and obs are pinned: the server's shared
// state (plan cache, workload cache, singleflight table, admission
// counters) must declare its locks with lint:guardedby, and the
// package must be clean under every analyzer — in particular
// guardedby (the declared locks are actually held) and clockdet (the
// server reads time only through the injected obs.Clock, which is
// what makes the eviction tests deterministic). One module load feeds
// both checks; TestModuleIsLintClean already proves the whole module,
// so this test's value is failing with a serve-specific message when
// someone strips an annotation or adds a raw time.Now().
func TestServeConcurrencyContract(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}

	ann := collectAnnotations(mod.Pkgs)
	guarded := 0
	for v := range ann.Guarded {
		if v.Pkg() != nil && v.Pkg().Path() == servePath {
			guarded++
		}
	}
	// Plan cache (2), workload cache (1), singleflight table (1), and
	// the admission counters (3) are the floor; dropping below it means
	// a shared field lost its contract.
	if guarded < 4 {
		t.Errorf("internal/serve declares %d lint:guardedby fields, want at least 4: the server's shared state must carry explicit lock contracts", guarded)
	}

	for _, d := range Run(mod.Pkgs, Analyzers()) {
		if !strings.Contains(d.File, "internal/serve") {
			continue
		}
		t.Errorf("internal/serve must be lint-clean: %s", d)
	}
}
