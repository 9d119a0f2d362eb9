// Package alloccheck verifies the repo's allocation-free hot-path
// contract against the compiler's actual escape analysis, gcassert-style.
//
// The hot paths that PRs 1/4/5 drove to ~0 allocs/op (simulator round
// delivery, cycles.Incremental.AddEdges, the pooled connectivity reload,
// tree.ForEachPathEdge, ...) were protected only by bench-smoke ceilings
// running at -benchtime=1x — an accidental heap escape fails a benchmark
// hours later, with no pointer to the offending expression. alloccheck
// moves that to build time: it recompiles each annotated package with
// `go tool compile -m` (using the same cached export data the loader
// already resolved, so no network and no second dependency build) and maps
// every `escapes to heap` / `moved to heap` finding back to the
// annotations:
//
//   - //kecss:alloc-free on a function declaration asserts the compiled
//     function body contains no heap allocation site at all. Any escape
//     or heap move inside it becomes a diagnostic at the allocating line.
//     Note this is stronger than "0 allocs/op warm": a function that
//     allocates only to grow a pool cannot carry it — annotate the
//     allocation-free leaves instead.
//   - //kecss:noescape on (or directly above) a line asserts the
//     allocation-like expressions on that line stay on the stack: `make`,
//     `new`, composite literals and closures there must compile to
//     `does not escape`.
//
// `leaking param` findings are deliberately ignored: a leaking parameter
// allocates in the caller, not in the annotated function. Escapes on lines
// inside a panic(...) call are likewise ignored for //kecss:alloc-free
// spans: a panic path allocates only while the process is dying, no
// benchmark ever observes it, and charging for it would push hot paths to
// drop their invariant guards. (//kecss:noescape lines stay strict.)
package alloccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the alloccheck instance wired into kecss-vet.
var Analyzer = &analysis.Analyzer{
	Name: "alloccheck",
	Doc:  "verify //kecss:alloc-free functions and //kecss:noescape lines against go tool compile -m escape analysis",
	Run:  run,
}

const (
	allocFreeDirective = "alloc-free"
	noEscapeDirective  = "noescape"
)

// span is one //kecss:alloc-free function's extent.
type span struct {
	file       string
	start, end int // line range, inclusive
	name       string
	pos        token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	dirs := analysis.CollectDirectives(pass)

	var spans []span
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !dirs.FuncHas(fn, allocFreeDirective) {
				continue
			}
			start := pass.Fset.Position(fn.Pos())
			end := pass.Fset.Position(fn.End())
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) > 0 {
				name = recvTypeName(fn.Recv.List[0].Type) + "." + name
			}
			spans = append(spans, span{file: start.Filename, start: start.Line, end: end.Line, name: name, pos: fn.Pos()})
		}
	}

	// A //kecss:noescape directive on line L asserts line L (trailing
	// comment) and line L+1 (comment-above form).
	noescape := make(map[string]map[int]bool)
	for file, lines := range dirs.Lines(noEscapeDirective) {
		m := make(map[int]bool)
		for _, l := range lines {
			m[l] = true
			m[l+1] = true
		}
		noescape[file] = m
	}

	if len(spans) == 0 && len(noescape) == 0 {
		return nil, nil
	}

	findings, err := escapeFindings(pass)
	if err != nil {
		return nil, err
	}
	panicLines := collectPanicLines(pass)
	for _, f := range findings {
		if m := noescape[f.file]; m != nil && m[f.line] {
			pass.Reportf(posAt(pass, f.file, f.line), "//kecss:noescape violated: %s", f.msg)
			continue
		}
		if m := panicLines[f.file]; m != nil && m[f.line] {
			continue // dying-process allocation, not a hot-path cost
		}
		for _, sp := range spans {
			if f.file == sp.file && f.line >= sp.start && f.line <= sp.end {
				pass.Reportf(posAt(pass, f.file, f.line), "//kecss:alloc-free function %s allocates: %s (line %d)", sp.name, f.msg, f.line)
				break
			}
		}
	}
	return nil, nil
}

// collectPanicLines maps file -> line numbers covered by a panic(...) call
// expression, so alloc-free spans are not charged for allocations that only
// happen while the process is dying.
func collectPanicLines(pass *analysis.Pass) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "panic" {
				return true
			}
			start := pass.Fset.Position(call.Pos())
			end := pass.Fset.Position(call.End())
			m := out[start.Filename]
			if m == nil {
				m = make(map[int]bool)
				out[start.Filename] = m
			}
			for l := start.Line; l <= end.Line; l++ {
				m[l] = true
			}
			return true
		})
	}
	return out
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return "?"
}

// finding is one escape-analysis event at a source line.
type finding struct {
	file string
	line int
	msg  string
}

var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeFindings compiles the package with -m and returns every
// heap-allocation finding. The compile consumes the loader's export data
// through an importcfg, so it needs no GOPATH, no network, and no second
// build of the dependency graph.
func escapeFindings(pass *analysis.Pass) ([]finding, error) {
	tmp, err := os.MkdirTemp("", "kecss-vet-alloccheck-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	cfg := new(strings.Builder)
	deps := pass.Prog.ExportedDeps()
	paths := make([]string, 0, len(deps))
	for p := range deps {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(cfg, "packagefile %s=%s\n", p, deps[p])
	}
	cfgPath := filepath.Join(tmp, "importcfg")
	if err := os.WriteFile(cfgPath, []byte(cfg.String()), 0o644); err != nil {
		return nil, err
	}

	importPath := pass.Meta.ImportPath
	if pass.Pkg.Name() == "main" {
		importPath = "main"
	}
	args := []string{"tool", "compile",
		"-p", importPath,
		"-importcfg", cfgPath,
		"-m",
		"-o", filepath.Join(tmp, "out.a"),
	}
	for _, f := range pass.Meta.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(pass.Meta.Dir, f)
		}
		args = append(args, f)
	}
	cmd := exec.Command(pass.Prog.GoTool, args...)
	cmd.Dir = pass.Meta.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("escape-analysis compile of %s failed: %v\n%s", importPath, err, out)
	}

	var findings []finding
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(pass.Meta.Dir, file)
		}
		findings = append(findings, finding{file: file, line: atoi(m[2]), msg: msg})
	}
	return findings, nil
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

// posAt converts (file, line) from compiler output back to a token.Pos in
// the pass's fileset.
func posAt(pass *analysis.Pass, file string, line int) token.Pos {
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil || tf.Name() != file {
			continue
		}
		if line <= tf.LineCount() {
			return tf.LineStart(line)
		}
	}
	return token.NoPos
}
