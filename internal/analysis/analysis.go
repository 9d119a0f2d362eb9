// Package analysis is the static-analysis layer behind cmd/kecss-vet: a
// small, dependency-free clone of the golang.org/x/tools/go/analysis API
// plus a package loader built on `go list -export` and go/types. It exists
// because the repo's three load-bearing contracts — mutex discipline in the
// serving stack, byte-identical deterministic solver output, and
// allocation-free hot paths — were enforced only at runtime (race tests,
// equivalence corpora, bench ceilings), which means a violation surfaces
// hours later as a flaky digest or a tripped allocation ceiling instead of
// failing the build at the offending line.
//
// # Analyzers
//
// Four project-specific analyzers live in subpackages and are wired into
// the cmd/kecss-vet multichecker:
//
//   - lockcheck: parses `guarded by` field comments into a field→mutex map
//     and reports reads/writes of guarded fields outside a critical section
//     of that mutex — including the exact read-after-Unlock pattern behind
//     the PR-7 and PR-8 Queue.Claim races.
//   - determcheck: in packages marked `//kecss:deterministic`, flags
//     iteration-order and wall-clock nondeterminism: range over maps (unless
//     the body is a commutative fold), time.Now, the global math/rand
//     functions, and multi-case selects.
//   - alloccheck: verifies `//kecss:alloc-free` functions and
//     `//kecss:noescape` sites against the compiler's real escape analysis
//     (`go tool compile -m`), so an accidental heap escape on a hot path
//     fails the build rather than a bench ceiling hours later.
//   - arenacheck: enforces the ownership rules of the types marked
//     `//kecss:arena` (congest.NetworkArena and cycles.Arena, which their
//     packages recycle through sync.Pools) — arena values must not be
//     re-shared into other structs or leaked into goroutine closures, and
//     arena-derived buffers may live only in fields of types marked
//     `//kecss:arena-owner` (congest.Network and cycles.Incremental).
//
// # Annotation conventions
//
// Struct-field guard comments (lockcheck):
//
//	mu     sync.Mutex
//	ready  []*entry // guarded by mu
//	job    *Job     // guarded by Queue.mu  (mutex lives in a sibling struct)
//
// Directive comments (all `//kecss:` directives are written without a
// space, like `//go:` directives, either on the flagged line, on the line
// directly above it, or in a declaration's doc comment):
//
//	//kecss:deterministic        package doc: solver package, determcheck applies
//	//kecss:nondeterministic-ok  this line is intentionally order/time-dependent
//	//kecss:alloc-free           this function must compile with zero heap escapes
//	//kecss:noescape             the allocation on this line must stay on the stack
//	//kecss:arena                this type is an arena (arenacheck tracks its values)
//	//kecss:arena-owner          this type borrows an arena for one loan and may hold its buffers
//	//kecss:arena-ok             this arena use is vetted (with a justification!)
//	//kecss:lockcheck-ok         this guarded access is vetted (with a justification!)
//
// Run the suite locally with:
//
//	go run ./cmd/kecss-vet ./...
//
// It exits non-zero with file:line:col diagnostics on any violation, and
// runs as a blocking CI step before the bench smokes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one analysis: its name, documentation, and how to
// run it on a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-paragraph description shown by kecss-vet -help.
	Doc string
	// Run applies the analyzer to one package and reports diagnostics
	// through the pass. The result value is unused (kept for API parity
	// with golang.org/x/tools/go/analysis).
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer run with a single type-checked package and
// a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token positions of every file in the pass to file:line:col.
	Fset *token.FileSet
	// Files are the package's parsed source files (no test files).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types, definitions, uses and selections for every
	// expression in Files.
	TypesInfo *types.Info
	// Meta is the `go list` record for the package (directory, file list,
	// import path, export-data locations of its dependencies via Prog).
	Meta *PackageMeta
	// Prog is the whole loaded program; analyzers that drive external
	// tooling (alloccheck's escape-analysis compile) use it to resolve
	// dependency export data.
	Prog *Program
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// RunAnalyzers applies every analyzer to every package and returns the
// diagnostics sorted by position. Analyzer errors (not diagnostics —
// failures to run at all) are returned as errs.
func RunAnalyzers(prog *Program, pkgs []*Package, analyzers []*Analyzer) (diags []SortedDiagnostic, errs []error) {
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Meta:      pkg.Meta,
				Prog:      prog,
			}
			pass.Report = func(d Diagnostic) {
				diags = append(diags, SortedDiagnostic{
					Analyzer: a.Name,
					Position: prog.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if _, err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Errorf("%s: %s: %w", pkg.Meta.ImportPath, a.Name, err))
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, errs
}

// SortedDiagnostic is a diagnostic resolved to a concrete file position,
// tagged with the analyzer that produced it.
type SortedDiagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d SortedDiagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}
