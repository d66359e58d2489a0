package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// AllowSite is one //lint:allow directive found in the module. The
// suppression pass (filterSuppressed) honors a directive with or
// without a reason; the audit layer is what makes the reason mandatory
// and the rule names real, so a suppression can never silently outlive
// the justification it was added with or the rule it was added for.
type AllowSite struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Rules    []string `json:"rules"`
	Reason   string   `json:"reason,omitempty"`
	FileWide bool     `json:"file_wide,omitempty"`
}

// String renders the site in file:line form for the -audit listing.
func (s AllowSite) String() string {
	scope := ""
	if s.FileWide {
		scope = " (file-wide)"
	}
	reason := s.Reason
	if reason == "" {
		reason = "<MISSING REASON>"
	}
	return fmt.Sprintf("%s:%d: allow %s%s — %s", s.File, s.Line, strings.Join(s.Rules, ","), scope, reason)
}

// Audit lists every //lint:allow directive in the packages, sorted by
// file then line. A directive missing its reason, or naming a rule
// that Analyzers does not have (a retired or misspelled one), is
// additionally returned as a diagnostic (rule "lint-audit") so the
// audit gate can fail on it; these diagnostics deliberately bypass the
// suppression pass — an allow cannot allow itself.
func Audit(pkgs []*Package) ([]AllowSite, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var sites []AllowSite
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			forEachAllow(pkg.Fset, f, func(site AllowSite, pos token.Position) {
				sites = append(sites, site)
				report := func(format string, args ...any) {
					diags = append(diags, Diagnostic{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Rule: "lint-audit", Message: fmt.Sprintf(format, args...),
					})
				}
				if site.Reason == "" {
					report("lint:allow %s has no reason: every suppression must say why the pattern is safe",
						strings.Join(site.Rules, ","))
				}
				for _, rule := range site.Rules {
					if !known[rule] {
						report("lint:allow names %q, which is not a rule of this suite (tsplit-lint -list): delete the suppression or fix the name", rule)
					}
				}
			})
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].File != sites[j].File {
			return sites[i].File < sites[j].File
		}
		return sites[i].Line < sites[j].Line
	})
	return sites, diags
}
