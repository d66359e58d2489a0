package lint

import (
	"fmt"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
)

// ChangedPackages returns the set of module package import paths that
// contain a .go file changed relative to ref (committed, staged,
// unstaged, or untracked), by shelling out to git. The result feeds
// Within's reporting filter: the whole module is still loaded and
// analyzed — interprocedural facts do not respect diff boundaries —
// but findings are reported only for changed packages.
//
// Any git failure (not a repository, unknown ref, no git binary)
// returns an error; the caller is expected to fall back to a full
// run rather than silently lint nothing.
func ChangedPackages(mod *Module, ref string) (map[string]bool, error) {
	diff, err := gitLines(mod.Dir, "diff", "--name-only", ref, "--")
	if err != nil {
		return nil, err
	}
	untracked, err := gitLines(mod.Dir, "ls-files", "--others", "--exclude-standard")
	if err != nil {
		return nil, err
	}
	pkgs := map[string]bool{}
	for _, rel := range append(diff, untracked...) {
		if !strings.HasSuffix(rel, ".go") {
			continue
		}
		dir := path.Dir(filepath.ToSlash(rel))
		if dir == "." {
			pkgs[mod.Path] = true
		} else {
			pkgs[mod.Path+"/"+dir] = true
		}
	}
	return pkgs, nil
}

// Within keeps the findings that fall in a file of one of the named
// packages (import paths, as ChangedPackages returns them).
func (m *Module) Within(diags []Diagnostic, pkgs map[string]bool) []Diagnostic {
	files := map[string]bool{}
	for _, pkg := range m.Pkgs {
		if !pkgs[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			files[pkg.Fset.Position(f.Package).Filename] = true
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if files[d.File] {
			kept = append(kept, d)
		}
	}
	return kept
}

// gitLines runs git -C dir args... and returns its non-empty output
// lines.
func gitLines(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("git", append([]string{"-C", dir}, args...)...)
	out, err := cmd.Output()
	if err != nil {
		detail := ""
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			detail = ": " + strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("lint: git %s%s (%w)", strings.Join(args, " "), detail, err)
	}
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines, nil
}
