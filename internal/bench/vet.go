package bench

import (
	"threads/internal/analysis"
)

// RunThreadsvetRepo loads every package of loader's module and runs the
// full threadsvet suite over them as one cross-package program, returning
// the package count and the number of unsuppressed, non-advisory findings.
// It is the engine behind the e20.vet_ms regression metric and
// BenchmarkThreadsvetRepo: the whole-program analysis (summaries,
// entry-held fixpoint, guard inference) has to stay fast enough to sit in
// the per-commit CI path.
func RunThreadsvetRepo(loader *analysis.Loader) (packages, findings int, err error) {
	dirs, err := loader.ExpandPatterns(loader.ModuleRoot, []string{"./..."})
	if err != nil {
		return 0, 0, err
	}
	pkgs := make([]*analysis.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			return 0, 0, err
		}
		pkgs = append(pkgs, pkg)
	}
	d := &analysis.Driver{Analyzers: analysis.All()}
	fs, err := d.RunProgram(analysis.NewProgram(pkgs))
	if err != nil {
		return 0, 0, err
	}
	for _, f := range fs {
		if !f.Suppressed && !f.Info {
			findings++
		}
	}
	return len(pkgs), findings, nil
}
