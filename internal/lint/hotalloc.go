package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hotalloc enforces the zero-alloc contract on functions marked with a
// `//perf:hot` directive (the steady-state reconstruction kernels and
// record paths whose AllocsPerRun budgets are zero). The check is
// intra-procedural and names the allocating expression: make/new/append,
// slice and map composite literals, &T{...}, string↔[]byte/[]rune and
// int→string conversions, non-constant string concatenation, interface
// boxing of non-pointer-shaped values at call sites, function literals
// (closure capture), and go statements. Callees are not followed — mark
// them hot too if they are on the path.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions marked //perf:hot must not allocate: no make/new/append, " +
		"escaping composite literals, interface boxing, closures, or goroutines",
	Run: runHotalloc,
}

// hotDirective is the exact comment line that opts a function in.
const hotDirective = "//perf:hot"

// isHotFunc reports whether the declaration carries the directive.
// Directive comments are excluded from Doc.Text(), so scan the raw list.
func isHotFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotDirective {
			return true
		}
	}
	return false
}

func runHotalloc(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFunc(fd) {
				continue
			}
			h := &hotallocFunc{p: p, name: fd.Name.Name}
			h.walk(fd.Body)
		}
	}
}

type hotallocFunc struct {
	p    *Pass
	name string
}

func (h *hotallocFunc) report(e ast.Expr, reason string) {
	h.p.Reportf(e.Pos(), "//perf:hot function %s must not allocate: %s %s",
		h.name, types.ExprString(e), reason)
}

func (h *hotallocFunc) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			h.report(n, "captures a closure")
			return false
		case *ast.GoStmt:
			h.report(n.Call, "spawns a goroutine")
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					h.report(n, "heap-allocates a composite literal")
					return false
				}
			}
		case *ast.CompositeLit:
			switch h.typeOf(n).Underlying().(type) {
			case *types.Slice:
				h.report(n, "allocates a slice")
			case *types.Map:
				h.report(n, "allocates a map")
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && h.isString(n) && !h.isConst(n) {
				h.report(n, "concatenates strings")
			}
		case *ast.CallExpr:
			h.call(n)
		}
		return true
	})
}

func (h *hotallocFunc) typeOf(e ast.Expr) types.Type {
	if t := h.p.Info.Types[e].Type; t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func (h *hotallocFunc) isString(e ast.Expr) bool {
	b, ok := h.typeOf(e).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (h *hotallocFunc) isConst(e ast.Expr) bool {
	return h.p.Info.Types[e].Value != nil
}

func (h *hotallocFunc) call(call *ast.CallExpr) {
	// Builtins that allocate.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := h.p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				h.report(call, "allocates with make")
			case "new":
				h.report(call, "allocates with new")
			case "append":
				h.report(call, "may grow its backing array")
			}
			return
		}
	}
	// Conversions that copy their operand into fresh memory.
	if tv, ok := h.p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		h.conversion(call, tv.Type)
		return
	}
	// Interface boxing at statically typed call sites.
	h.boxing(call)
}

func (h *hotallocFunc) conversion(call *ast.CallExpr, to types.Type) {
	from := h.typeOf(call.Args[0])
	toStr := isStringType(to)
	fromStr := isStringType(from)
	switch {
	case toStr && isByteOrRuneSlice(from), fromStr && isByteOrRuneSlice(to):
		if !h.isConst(call.Args[0]) {
			h.report(call, "copies between string and slice")
		}
	case toStr && !fromStr:
		h.report(call, "builds a new string")
	default:
		if isInterface(to) {
			h.checkBox(call.Args[0])
		}
	}
}

// boxing flags non-pointer-shaped concrete arguments passed to
// interface-typed parameters (each such pass allocates the box).
func (h *hotallocFunc) boxing(call *ast.CallExpr) {
	fn := h.p.CalleeFunc(call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if isInterface(pt) {
			h.checkBox(arg)
		}
	}
}

// checkBox reports arg if converting it to an interface allocates: its
// concrete representation is larger than a pointer word.
func (h *hotallocFunc) checkBox(arg ast.Expr) {
	t := h.typeOf(arg)
	if h.isConst(arg) {
		return // constants box to read-only statics
	}
	if isInterface(t) {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil || u.Kind() == types.Invalid {
			return
		}
	}
	h.report(arg, "boxes a value into an interface")
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isInterface reports whether a value of type t is an interface value.
// A type parameter is not: its underlying type is its constraint, but a
// conversion to it (F(x) in a generic kernel) or an argument passed as it
// stays a plain value of the instantiated type.
func isInterface(t types.Type) bool {
	if _, isParam := types.Unalias(t).(*types.TypeParam); isParam {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}
