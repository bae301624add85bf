// Package analysis statically enforces the usage discipline the paper's
// specification assumes of client code. The specification is sound only
// under obligations it states in prose — return from Wait is only a hint,
// a Condition is protected by exactly one Mutex, Release is called only by
// the holder, AlertWait callers must handle Alerted — and the dynamic
// checkers (internal/checker, internal/trace, internal/explore) verify them
// only on schedules that actually execute. The analyzers here turn each
// obligation into a compile-time diagnostic over `threads` call sites, in
// the spirit of golang.org/x/tools/go/analysis.
//
// The framework mirrors the x/tools Analyzer/Pass shape but is built
// entirely on the standard library (go/ast, go/types, and the source
// importer), so it needs no module dependencies; see Loader. The analyzers
// could be ported to real go/analysis Analyzers (and run under
// `go vet -vettool`) by swapping the driver, which is deliberately thin.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer checks one usage rule. Doc cites the paper clause the rule
// encodes.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's syntax, types and pre-resolved threads-API
// call sites to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *Package

	// Prog is the whole program this package was analyzed within. Always
	// non-nil under the driver; Prog.Summaries() and Prog.Guards() are the
	// cross-package facts shared by the interprocedural analyzers.
	Prog *Program

	// Calls lists every resolved call to the threads API (all faces) in
	// source order. Sites returns the per-CallExpr index.
	Calls []*CallSite
	// MethodVals lists references to tracked methods as method values
	// (w := c.Wait): uses the resolver cannot follow.
	MethodVals []*MethodValue

	// Options carries driver flags ("guardedby.suggest": "true").
	Options map[string]string

	sites   map[*ast.CallExpr]*CallSite
	parents map[ast.Node]ast.Node
	report  func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Related positions elsewhere in the program (the annotation a guarded
	// access violates, the callee acquire behind a leak). An ignore
	// directive at any related position also suppresses the finding.
	Related []token.Position
	// Info marks an advisory finding (a -guardedby.suggest proposal): shown,
	// never counted as failure.
	Info bool
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully built diagnostic (related positions, advisory
// flag).
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Site returns the resolved call site for call, if it is a threads-API
// call.
func (p *Pass) Site(call *ast.CallExpr) (*CallSite, bool) {
	s, ok := p.sites[call]
	return s, ok
}

// Parent returns the syntactic parent of n within its file, or nil.
func (p *Pass) Parent(n ast.Node) ast.Node { return p.parents[n] }

// Finding is a driver-level diagnostic: an analyzer finding plus its
// suppression state.
type Finding struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Related    []token.Position // cross-references (annotation site, callee)
	Info       bool             // advisory: reported but never a failure
	Suppressed bool             // silenced by a //threadsvet:ignore directive
	Reason     string           // the directive's justification, when suppressed
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Driver runs a set of analyzers over packages and applies the
// //threadsvet:ignore directives.
type Driver struct {
	Analyzers []*Analyzer
	Options   map[string]string
}

// IgnoreDirective is the suppression syntax the driver parses:
//
//	//threadsvet:ignore analyzer[,analyzer]: reason
//
// placed on the flagged line or on the line directly above it. The reason
// is mandatory: an unjustified or malformed directive is itself reported.
const IgnoreDirective = "threadsvet:ignore"

type ignoreEntry struct {
	analyzers map[string]bool
	reason    string
	line      int
	used      bool
}

// Run analyzes one package, as a single-package program, and returns its
// findings (suppressed ones included, marked) sorted by position.
func (d *Driver) Run(pkg *Package) ([]Finding, error) {
	return d.RunProgram(NewProgram([]*Package{pkg}))
}

// RunProgram analyzes every package of the program and returns the
// combined findings sorted by position. Ignore directives are accounted
// globally: a directive is stale only if it suppressed nothing anywhere in
// the program, so a justification next to an annotation in one package can
// cover findings reported against it from another.
func (d *Driver) RunProgram(prog *Program) ([]Finding, error) {
	ignores := make(map[string][]*ignoreEntry)
	var findings []Finding
	for _, pkg := range prog.Packages {
		ign, bad := d.parseIgnores(pkg)
		for file, ents := range ign {
			ignores[file] = append(ignores[file], ents...)
		}
		findings = append(findings, bad...)
	}

	for _, pkg := range prog.Packages {
		ctx := prog.ctx[pkg]
		for _, a := range d.Analyzers {
			a := a
			pass := prog.pass(ctx)
			pass.Analyzer = a
			pass.Options = d.Options
			pass.report = func(diag Diagnostic) {
				pos := pass.Fset.Position(diag.Pos)
				f := Finding{
					Analyzer: a.Name,
					Pos:      pos,
					Message:  diag.Message,
					Related:  diag.Related,
					Info:     diag.Info,
				}
				if ent := matchIgnore(ignores, pos, diag.Related, a.Name); ent != nil {
					ent.used = true
					f.Suppressed = true
					f.Reason = ent.reason
				}
				findings = append(findings, f)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}

	// An ignore directive that suppressed nothing anywhere in the program is
	// stale: report it so directives cannot silently outlive the code they
	// excused.
	for file, ents := range ignores {
		for _, ent := range ents {
			if !ent.used {
				findings = append(findings, Finding{
					Analyzer: "threadsvet",
					Pos:      token.Position{Filename: file, Line: ent.line},
					Message:  fmt.Sprintf("ignore directive suppresses nothing (analyzers %s)", keys(ent.analyzers)),
				})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// parseIgnores scans comments for ignore directives. Malformed directives
// (no reason, unknown analyzer) are returned as findings.
func (d *Driver) parseIgnores(pkg *Package) (map[string][]*ignoreEntry, []Finding) {
	known := make(map[string]bool)
	for _, a := range d.Analyzers {
		known[a.Name] = true
	}
	for _, a := range All() { // directives may name analyzers not in this run
		known[a.Name] = true
	}
	ignores := make(map[string][]*ignoreEntry)
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+IgnoreDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				names, reason, ok := strings.Cut(strings.TrimSpace(text), ":")
				reason = strings.TrimSpace(reason)
				if !ok || reason == "" {
					bad = append(bad, Finding{
						Analyzer: "threadsvet",
						Pos:      pos,
						Message:  "malformed ignore directive: want //threadsvet:ignore analyzer[,analyzer]: reason",
					})
					continue
				}
				ent := &ignoreEntry{analyzers: make(map[string]bool), reason: reason, line: pos.Line}
				valid := true
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if !known[name] {
						bad = append(bad, Finding{
							Analyzer: "threadsvet",
							Pos:      pos,
							Message:  fmt.Sprintf("ignore directive names unknown analyzer %q", name),
						})
						valid = false
						continue
					}
					ent.analyzers[name] = true
				}
				if valid {
					ignores[pos.Filename] = append(ignores[pos.Filename], ent)
				}
			}
		}
	}
	return ignores, bad
}

// matchIgnore finds a directive covering the finding for analyzer name:
// one on the same line as the position or on the line directly above —
// either at the finding itself or at any of its related positions (so a
// guarded-by violation can be excused where the annotation lives).
func matchIgnore(ignores map[string][]*ignoreEntry, pos token.Position, related []token.Position, name string) *ignoreEntry {
	at := func(p token.Position) *ignoreEntry {
		for _, ent := range ignores[p.Filename] {
			if ent.analyzers[name] && (ent.line == p.Line || ent.line == p.Line-1) {
				return ent
			}
		}
		return nil
	}
	if ent := at(pos); ent != nil {
		return ent
	}
	for _, p := range related {
		if ent := at(p); ent != nil {
			return ent
		}
	}
	return nil
}

func buildParents(files []*ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return parents
}

func keys(m map[string]bool) string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}
