// Command threadsvet runs the static usage-discipline checks for the
// threads API (internal/analysis) over package patterns, in the style of
// go vet:
//
//	threadsvet ./...
//	threadsvet -only waitloop,lockpair ./internal/workload
//	threadsvet -report vet.txt ./...
//	threadsvet -report=github -report vet.txt ./...   # CI annotations + artifact
//	threadsvet -guardedby.suggest ./...
//
// All matched packages are analyzed as one program, so the
// interprocedural analyzers (guardedby, lockpair, lockorder and
// nubdiscipline) see function summaries across package boundaries.
//
// -report takes a file path, or the special value "github" to emit
// GitHub Actions workflow commands (::error file=…,line=…::message) that
// annotate the offending lines in pull-request diffs; the flag repeats,
// so CI can emit annotations and keep the artifact file.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
// load errors. Findings silenced by //threadsvet:ignore directives are
// counted in the summary but do not fail the run; a malformed, unknown or
// stale directive is itself a finding. Advisory findings (the
// -guardedby.suggest proposals) are printed but never fail the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"threads/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("threadsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var reports reportFlags
	var (
		only    = fs.String("only", "", "comma-separated analyzers to run (default: all)")
		skip    = fs.String("skip", "", "comma-separated analyzers to skip")
		tests   = fs.Bool("tests", false, "also analyze _test.go files")
		suggest = fs.Bool("guardedby.suggest", false, "print advisory //threads:guardedby annotation suggestions for consistently guarded fields")
		list    = fs.Bool("list", false, "list the analyzers and exit")
	)
	fs.Var(&reports, "report", "write every finding (suppressed included) to this file, or \"github\" to emit GitHub Actions ::error annotations on stdout (repeatable)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: threadsvet [flags] [package patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*only, *skip)
	if err != nil {
		fmt.Fprintf(stderr, "threadsvet: %v\n", err)
		return 2
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "threadsvet: %v\n", err)
		return 2
	}
	loader.IncludeTests = *tests

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := loader.ExpandPatterns(".", patterns)
	if err != nil {
		fmt.Fprintf(stderr, "threadsvet: %v\n", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintf(stderr, "threadsvet: no packages match %v\n", patterns)
		return 2
	}

	opts := map[string]string{}
	if *suggest {
		opts["guardedby.suggest"] = "true"
	}
	driver := &analysis.Driver{Analyzers: analyzers, Options: opts}

	// Load every matched package, then analyze them together: the Program is
	// what lets summaries cross package boundaries.
	pkgs := make([]*analysis.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(stderr, "threadsvet: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := driver.RunProgram(analysis.NewProgram(pkgs))
	if err != nil {
		fmt.Fprintf(stderr, "threadsvet: %v\n", err)
		return 2
	}

	cwd, _ := os.Getwd()
	var reportLines []string
	total, suppressed, advisory := 0, 0, 0
	for _, f := range findings {
		f.Pos.Filename = relPath(cwd, f.Pos.Filename)
		if f.Suppressed {
			suppressed++
			reportLines = append(reportLines,
				fmt.Sprintf("suppressed: %s: reason: %s", f, f.Reason))
			continue
		}
		if f.Info {
			advisory++
		} else {
			total++
		}
		fmt.Fprintln(stdout, f)
		for _, r := range f.Related {
			r.Filename = relPath(cwd, r.Filename)
			fmt.Fprintf(stdout, "\t%s: related\n", r)
		}
		if reports.github {
			fmt.Fprintln(stdout, githubCommand(f))
		}
		reportLines = append(reportLines, f.String())
	}

	for _, file := range reports.files {
		body := strings.Join(reportLines, "\n")
		if body != "" {
			body += "\n"
		}
		if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
			fmt.Fprintf(stderr, "threadsvet: %v\n", err)
			return 2
		}
	}
	fmt.Fprintf(stderr, "threadsvet: %d packages, %d findings, %d suppressed, %d advisory\n",
		len(dirs), total, suppressed, advisory)
	if total > 0 {
		return 1
	}
	return 0
}

// reportFlags collects repeated -report values: file paths plus the
// special "github" mode.
type reportFlags struct {
	files  []string
	github bool
}

func (r *reportFlags) String() string { return strings.Join(r.files, ",") }

func (r *reportFlags) Set(v string) error {
	if v == "github" {
		r.github = true
		return nil
	}
	r.files = append(r.files, v)
	return nil
}

// githubCommand renders a finding as a GitHub Actions workflow command, so
// CI annotates the offending line in the pull-request diff. Property
// values and the message use the Actions escaping rules (%, CR, LF; plus
// ',' and ':' inside properties).
func githubCommand(f analysis.Finding) string {
	level := "error"
	if f.Info {
		level = "notice"
	}
	msg := f.Message + " (" + f.Analyzer + ")"
	return fmt.Sprintf("::%s file=%s,line=%d,col=%d::%s",
		level, escapeProperty(f.Pos.Filename), f.Pos.Line, f.Pos.Column, escapeData(msg))
}

func escapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	return strings.ReplaceAll(s, "\n", "%0A")
}

func escapeProperty(s string) string {
	s = escapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	return strings.ReplaceAll(s, ",", "%2C")
}

// selectAnalyzers applies -only and -skip to the suite.
func selectAnalyzers(only, skip string) ([]*analysis.Analyzer, error) {
	chosen := analysis.All()
	if only != "" {
		chosen = nil
		for _, name := range splitNames(only) {
			a, ok := analysis.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			chosen = append(chosen, a)
		}
	}
	if skip != "" {
		drop := make(map[string]bool)
		for _, name := range splitNames(skip) {
			if _, ok := analysis.ByName(name); !ok {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			drop[name] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range chosen {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		chosen = kept
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].Name < chosen[j].Name })
	return chosen, nil
}

func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// relPath shortens absolute finding positions relative to the working
// directory when that makes them shorter (go vet prints relative paths).
func relPath(cwd, path string) string {
	if cwd == "" {
		return path
	}
	if rel, err := filepath.Rel(cwd, path); err == nil && len(rel) < len(path) {
		return rel
	}
	return path
}
