package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Program is a set of packages analyzed together. Analyzers see one package
// at a time (a Pass), but the Program gives them whole-program context: the
// cross-package function summaries of interproc.go, the guarded-by
// annotation table of guards.go, and per-package resolved call sites, so
// that lockorder, nubdiscipline, lockpair and guardedby can reason through
// calls into other packages of the module. Packages outside the program
// (a subset run, the standard library) summarize empty — the analyses
// degrade to false negatives, never false positives, exactly as at every
// other analysis horizon.
type Program struct {
	Packages []*Package

	byPath map[string]*Package
	ctx    map[*Package]*pkgContext
	decls  map[string]*declSite // FuncKey → declaring package + decl

	summaries *Summaries
	guards    *GuardTable
}

// pkgContext is the once-per-package resolution work shared by every
// analyzer pass and by the summary engine.
type pkgContext struct {
	pkg        *Package
	parents    map[ast.Node]ast.Node
	calls      []*CallSite
	sites      map[*ast.CallExpr]*CallSite
	methodVals []*MethodValue
}

// declSite locates a function declaration inside the program.
type declSite struct {
	ctx  *pkgContext
	decl *ast.FuncDecl
}

// NewProgram resolves each package's call sites and indexes every function
// declaration by its cross-package key.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		byPath: make(map[string]*Package, len(pkgs)),
		ctx:    make(map[*Package]*pkgContext, len(pkgs)),
		decls:  make(map[string]*declSite),
	}
	for _, pkg := range pkgs {
		if _, dup := prog.byPath[pkg.ImportPath]; dup {
			continue
		}
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[pkg.ImportPath] = pkg
		parents := buildParents(pkg.Files)
		calls, sites, methodVals := Resolve(pkg, parents)
		ctx := &pkgContext{pkg: pkg, parents: parents, calls: calls, sites: sites, methodVals: methodVals}
		prog.ctx[pkg] = ctx
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if key := FuncKeyOf(fn); key != "" {
					if _, dup := prog.decls[key]; !dup {
						prog.decls[key] = &declSite{ctx: ctx, decl: fd}
					}
				}
			}
		}
	}
	return prog
}

// Summaries returns the program's lazily built cross-package summary
// engine.
func (prog *Program) Summaries() *Summaries {
	if prog.summaries == nil {
		prog.summaries = newSummaries(prog)
	}
	return prog.summaries
}

// Guards returns the program's lazily parsed guarded-by annotation table.
func (prog *Program) Guards() *GuardTable {
	if prog.guards == nil {
		prog.guards = parseGuards(prog)
	}
	return prog.guards
}

// pass builds a bare Pass (no analyzer, no reporter) over pkg for internal
// walks: the summary engine drives seqWalker through it.
func (prog *Program) pass(ctx *pkgContext) *Pass {
	return &Pass{
		Fset:       ctx.pkg.Fset,
		Files:      ctx.pkg.Files,
		Pkg:        ctx.pkg,
		Prog:       prog,
		Calls:      ctx.calls,
		MethodVals: ctx.methodVals,
		sites:      ctx.sites,
		parents:    ctx.parents,
	}
}

// FuncKeyOf returns the cross-package identity of a function or method:
// "pkg/path.Name" for package functions, "(pkg/path.Type).Name" for
// methods, with pointer receivers folded onto value receivers and generic
// instantiations folded onto the generic type (Ring[int] and Ring[T] are
// the same declaration). Functions without a package (builtins, universe
// scope) key as "".
func FuncKeyOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		return "(" + normalizedTypeName(recv.Type()) + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// normalizedTypeName renders a receiver type for cross-package keys:
// pointer stripped, type arguments (and the declaration's type parameters)
// cut, so every instantiation of a generic type shares one key.
func normalizedTypeName(t types.Type) string {
	s := strings.TrimPrefix(types.TypeString(t, nil), "*")
	if i := strings.IndexByte(s, '['); i > 0 {
		s = s[:i]
	}
	return s
}
