// Package lint is a from-scratch static-analysis driver on the standard
// library's go/ast, go/parser, and go/types — no module dependencies —
// with project-specific analyzers that machine-check the invariants this
// repo's layers rely on but the compiler cannot see:
//
//   - simclock: all time stamping in library code goes through the
//     environment clock (flow.Env), so traces recorded under the
//     discrete-event kernel are byte-identical run to run.
//   - wrapcheck: error chains survive wrapping (%w, never %v/%s), and
//     errors born at the transfer/facility/flow boundaries carry a
//     faults class so retry loops classify them correctly.
//   - ctxfirst: context.Context travels as the first parameter and never
//     hides in struct fields.
//   - testsleep: tests synchronize on observable state, not time.Sleep.
//   - deadcode: every production declaration under internal/ is reached
//     from a binary, a benchmark driver or an init, or is allowlisted
//     with the reason only tests reach it.
//
// Analyzers are semantic, not textual: the driver type-checks every
// package (method-set aware, alias-proof), so `import t "time"` or a
// shadowed identifier cannot fool a check. Each analyzer lives in its own
// file and registers in All; adding a check is dropping in one file.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as the machine-readable
// "file:line:col: [analyzer] message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical gate format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Exactly one of Run and
// RunModule is set: Run sees one package at a time, RunModule sees every
// loaded package at once (for checks whose facts span packages, like the
// lock-acquisition graph).
type Analyzer struct {
	// Name tags diagnostics and selects the analyzer on the command line.
	Name string
	// Doc is the one-paragraph description `repolint -list` prints.
	Doc string
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass)
	// RunModule inspects the whole loaded package set at once.
	RunModule func(*ModulePass)
}

// All is the analyzer registry, in reporting order.
var All = []*Analyzer{Simclock, Wrapcheck, CtxFirst, TestSleep, Stdlog,
	Lockguard, Lockorder, Nocopy, Hotalloc, Deadcode}

// ByName returns the registered analyzer with the given name, if any.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's syntax, including in-package _test.go files
	// (external test packages form their own Pass).
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Config *Config

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// ModulePass carries every loaded package through one module-spanning
// analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Config   *Config

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (m *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*m.diags = append(*m.diags, Diagnostic{
		Pos:      m.Fset.Position(pos),
		Analyzer: m.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether f is a _test.go file.
func (m *ModulePass) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(m.Fset.Position(f.Pos()).Filename, "_test.go")
}

// CalleeFunc resolves the static callee of a call expression, or nil for
// dynamic calls, conversions, and built-ins.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// FuncPath returns the allowlist key of a function object: "pkgpath.Name"
// for package functions, "pkgpath.Recv.Name" for methods (pointer
// receivers spelled without the star).
func FuncPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Config scopes and allowlists the analyzers. The zero value disables all
// scoping; DefaultConfig returns the repo's production gate.
type Config struct {
	// ModulePath of the code under analysis.
	ModulePath string

	// SimclockScope lists import-path prefixes simclock enforces (the
	// library layers); empty means every package. Entry points (cmd/,
	// examples/) legitimately run on the wall clock and stay outside.
	SimclockScope []string
	// SimclockAllowFuncs are the declarations allowed to touch the wall
	// clock directly, keyed by FuncPath — the environment-clock gateway
	// (flow.RealEnv) and the real-socket timeout waits.
	SimclockAllowFuncs map[string]bool
	// SimclockAllowPackages are packages allowed wholesale (test
	// infrastructure that must poll real time, e.g. leakcheck).
	SimclockAllowPackages map[string]bool

	// WrapcheckBoundaryPackages are the layers whose newly created errors
	// must carry a faults class (or wrap a classified cause with %w).
	WrapcheckBoundaryPackages map[string]bool
	// FaultsPackage is the import path of the fault-taxonomy package.
	FaultsPackage string

	// CtxFirstAllowFields are struct types ("pkgpath.Name") allowed to
	// hold a context.Context field (e.g. the flow run handle).
	CtxFirstAllowFields map[string]bool

	// StdlogScope lists import-path prefixes where importing the stdlib
	// log package is forbidden (library code journals through obslog);
	// empty means every package. There is deliberately no allowlist.
	StdlogScope []string

	// DeadcodeAllow keeps declarations in internal packages that only
	// tests reach, keyed "pkgpath.Name" or "pkgpath.Recv.Name" (or
	// a bare package path for a whole package), each mapped to its
	// reason: a reference the product is compared against, an observer
	// a test reads product state through, a fixture that builds input
	// the product reads, or a ROADMAP item that is pending on it.
	DeadcodeAllow map[string]string
}

// DefaultConfig is the gate enforced on this repository.
func DefaultConfig() *Config {
	return &Config{
		ModulePath:    "repro",
		SimclockScope: []string{"repro/internal"},
		SimclockAllowFuncs: map[string]bool{
			// The one sanctioned wall-clock gateway.
			"repro/internal/flow.RealEnv.Now":      true,
			"repro/internal/flow.RealEnv.Sleep":    true,
			"repro/internal/flow.RealEnv.SleepCtx": true,
			// The shared binary-side clock bridge both servers resolve
			// their clock through. Note internal/sched has NO entries
			// here: the scheduler is env-clock only by construction.
			"repro/internal/sim.WallClock.Now": true,
			// Real-socket operations need real timers for bounded waits:
			// the timeout select in Pull.Recv and the reconnect backoff
			// timer in Push.Send (which selects on ctx.Done).
			"repro/internal/msgq.Pull.Recv": true,
			"repro/internal/msgq.Push.Send": true,
		},
		SimclockAllowPackages: map[string]bool{
			// Goroutine-leak polling is wall-clock by nature.
			"repro/internal/leakcheck": true,
		},
		WrapcheckBoundaryPackages: map[string]bool{
			"repro/internal/transfer": true,
			"repro/internal/facility": true,
			"repro/internal/flow":     true,
		},
		FaultsPackage: "repro/internal/faults",
		CtxFirstAllowFields: map[string]bool{
			// The flow run handle carries the run's context by design.
			"repro/internal/flow.Ctx": true,
			// A queued run carries its submission context (journal +
			// tenant identity) until a worker dispatches it.
			"repro/internal/sched.item": true,
		},
		StdlogScope: []string{"repro/internal"},
		DeadcodeAllow: map[string]string{
			"repro/internal/leakcheck": "observer: every TestMain reads the goroutines the product leaves behind through it",

			"repro/internal/core.FileShareDeviation":          "observer: campaign tests and the root campaign benchmark read the scheduler's weighted-fair shares through it",
			"repro/internal/core.StreamingService.FramesSeen": "observer: streaming tests read how many frames the service consumed",
			"repro/internal/dxfile.Writer.WriteFloat32":       "fixture: tests write float32 datasets the reader must decode",
			"repro/internal/dxfile.Reader.Datasets":           "observer: tests read the dataset list a written file carries",
			"repro/internal/dxfile.Reader.Dims":               "observer: tests read the shape and dtype a written dataset carries",
			"repro/internal/facility.SFAPI.Wait":              "observer: SFAPI tests wait on the state of a job the server ran",
			"repro/internal/facility.SFAPI.WaitCtx":           "observer: SFAPI tests wait on a job's state under a deadline",
			"repro/internal/fft.Forward":                      "reference: refFilterSinogram and refPaganinFilter transform through it",
			"repro/internal/fft.Inverse":                      "reference: refFilterSinogram and refPaganinFilter transform through it",
			"repro/internal/fft.plan.Inverse2D":               "reference: refGridrec inverts its full grid through it",
			"repro/internal/monitor.Registry.Counter":         "observer: metric tests read counter values the product recorded",
			"repro/internal/monitor.Registry.Gauge":           "observer: metric tests read gauge values the product recorded",
			"repro/internal/monitor.Registry.SeriesCount":     "observer: cardinality tests read how many label sets a metric holds",
			"repro/internal/monitor.Registry.CounterSeries":   "observer: exposition tests list the counter series a metric holds",
			"repro/internal/phantom.SheppLogan":               "fixture: reconstruction tests project the 2-D phantom as their input",
			"repro/internal/pva.Mirror.Missed":                "observer: mirror tests read the frames a slow monitor lost",
			"repro/internal/scenario.Verification.Pass":       "observer: golden tests read a replay's end-to-end verdict",
			"repro/internal/scicat.Catalog.Samples":           "observer: catalog tests read the sample index ingestion built",
			"repro/internal/sim.Signal.Fired":                 "observer: engine tests read whether a signal fired",
			"repro/internal/sim.Resource.InUse":               "observer: engine tests read a resource's holders",
			"repro/internal/sim.Resource.Queued":              "observer: engine tests read a resource's waiters",
			"repro/internal/storage.Store.Count":              "observer: storage and pipeline tests read how many files a tier holds",
			"repro/internal/telemetry.Plane.HealthFor":        "pending: ROADMAP item 13 gives the per-facility verdict a consumer",
			"repro/internal/tomo.Sinogram.Clone":              "fixture: tests copy a sinogram before poisoning it",
			"repro/internal/tomo.ProjectionSet.At":            "observer: tests read single samples of a projection set",
			"repro/internal/tomo.ProjectionSet.SizeBytes":     "observer: a test reads the raw footprint of a paper-sized scan",
			"repro/internal/trace.Span.Attrs":                 "observer: tracing tests read a span's attributes",
			"repro/internal/trace.Span.StartTime":             "observer: tracing tests read a span's start stamp",
			"repro/internal/trace.Span.Children":              "observer: tracing tests walk the span tree the product built",
		},
	}
}

// simclockInScope reports whether simclock applies to the package.
func (c *Config) simclockInScope(pkgPath string) bool {
	if c.SimclockAllowPackages[pkgPath] {
		return false
	}
	if len(c.SimclockScope) == 0 {
		return true
	}
	for _, prefix := range c.SimclockScope {
		if pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/") {
			return true
		}
	}
	return false
}

// stdlogInScope reports whether stdlog applies to the package.
func (c *Config) stdlogInScope(pkgPath string) bool {
	if len(c.StdlogScope) == 0 {
		return true
	}
	for _, prefix := range c.StdlogScope {
		if pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/") {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Config:   cfg,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil || len(pkgs) == 0 {
			continue
		}
		a.RunModule(&ModulePass{
			Analyzer: a,
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			Config:   cfg,
			diags:    &diags,
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// parentMap records each node's syntactic parent within one file, for
// checks that need to look outward from a match (e.g. "is this time.Now
// feeding a SetDeadline?").
type parentMap map[ast.Node]ast.Node

func buildParents(f *ast.File) parentMap {
	parents := parentMap{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFuncPath returns the FuncPath of the declaration containing n
// ("" at file scope).
func (p *Pass) enclosingFuncPath(parents parentMap, n ast.Node) string {
	for cur := n; cur != nil; cur = parents[cur] {
		decl, ok := cur.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn, _ := p.Info.Defs[decl.Name].(*types.Func)
		return FuncPath(fn)
	}
	return ""
}
