package checker

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"threads/internal/analysis"
)

// derivedTypes maps every exported type of package derived to the
// derived-layer primitive whose litmuses explore it.
var derivedTypes = map[string]string{
	"CountingSemaphore": "counting-semaphore",
	"Pool":              "pool",
	"RWLock":            "rwlock",
	"Monitor":           "monitor",
	"MonitorCond":       "monitor",
	"Barrier":           "barrier-phaser",
	"Phaser":            "barrier-phaser",
	"Latch":             "latch",
	"Future":            "future",
	"Ring":              "mpsc-ring",
}

// TestPrimitiveRegistryClosed is the growth test: every registered
// primitive must be fully wired — a spec face, at least one litmus that
// resolves and gives it explorer coverage, and at least one threadsvet
// obligation naming a real analyzer — and conversely every litmus must be
// claimed by some primitive. A new derived primitive therefore cannot ship
// half-wired: adding it to Primitives() without a litmus fails here, and
// adding a litmus without declaring whose behavior it checks fails too.
// The same holds for what package derived exports: every exported type
// must be claimed by a derived-layer primitive through derivedTypes.
func TestPrimitiveRegistryClosed(t *testing.T) {
	analyzers := make(map[string]bool)
	for _, a := range analysis.All() {
		analyzers[a.Name] = true
	}
	layers := map[string]bool{"paper": true, "internal": true, "derived": true}

	claimed := make(map[string]string) // litmus name -> claiming primitive
	layerOf := make(map[string]string) // primitive name -> layer
	for _, p := range Primitives() {
		if p.Name == "" {
			t.Fatal("primitive with empty name")
		}
		if _, dup := layerOf[p.Name]; dup {
			t.Errorf("%s: registered twice", p.Name)
		}
		layerOf[p.Name] = p.Layer
		if !layers[p.Layer] {
			t.Errorf("%s: unknown layer %q", p.Name, p.Layer)
		}
		if p.SpecFace == "" {
			t.Errorf("%s: no spec face", p.Name)
		}
		if len(p.Litmuses) == 0 {
			t.Errorf("%s: no litmus — the primitive has no explorer coverage", p.Name)
		}
		for _, name := range p.Litmuses {
			lit := LitmusByName(name)
			if lit == nil {
				t.Errorf("%s: litmus %q is not in the registry", p.Name, name)
				continue
			}
			// Explorer coverage means the sim face exists: the explorer
			// and both CI pipelines iterate Registry() and drive Sim.
			if lit.Sim.Build == nil || lit.Sim.Procs <= 0 {
				t.Errorf("%s: litmus %q has no sim face, so the explorer cannot cover it", p.Name, name)
			}
			if prev, dup := claimed[name]; dup && prev != p.Name {
				// Shared litmuses are fine (e.g. alert scenarios exercise
				// the condition too) but must be intentional; today each
				// litmus has one owning primitive.
				t.Errorf("litmus %q claimed by both %s and %s", name, prev, p.Name)
			}
			claimed[name] = p.Name
		}
		if len(p.VetObligations) == 0 {
			t.Errorf("%s: no threadsvet obligation", p.Name)
		}
		for _, ob := range p.VetObligations {
			if !analyzers[ob] {
				t.Errorf("%s: vet obligation %q names no analyzer in analysis.All()", p.Name, ob)
			}
		}
	}

	for _, lit := range Registry() {
		if claimed[lit.Name] == "" {
			t.Errorf("litmus %q is claimed by no primitive — declare whose behavior it checks in Primitives()", lit.Name)
		}
	}

	exported := exportedTypes(t, "../../derived")
	for name := range exported {
		if prim := derivedTypes[name]; layerOf[prim] != "derived" {
			t.Errorf("derived.%s is claimed by no derived-layer primitive (derivedTypes maps it to %q)", name, prim)
		}
	}
	for name := range derivedTypes {
		if !exported[name] {
			t.Errorf("derivedTypes names derived.%s, which package derived no longer exports", name)
		}
	}
}

// exportedTypes returns the exported type names declared in dir's non-test
// Go files.
func exportedTypes(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	fset := token.NewFileSet()
	names := make(map[string]bool)
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, s := range gd.Specs {
					if ts := s.(*ast.TypeSpec); ts.Name.IsExported() {
						names[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return names
}
