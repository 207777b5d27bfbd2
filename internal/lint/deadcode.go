package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadcode reports production declarations in internal packages that no
// binary reaches. The roots are every package main's main,
// every init, and every package-level var initialiser across the loaded
// packages (cmd/, examples/ and the bench module all count as
// consumers); an edge is any identifier use inside a declaration, with
// generic instances mapped to their origin. A method is live when live
// code selects it, or when its receiver type is live and its name is a
// method of some interface in the loaded program — the conservative
// stand-in for dynamic dispatch. Test files are neither roots nor
// edges, so code that only tests reach is reported unless
// Config.DeadcodeAllow names it (or its package) with a reason.
// Reachability is judged within the loaded packages, so the verdict is
// only meaningful over ./...; a load with no package main reports
// nothing.
var Deadcode = &Analyzer{
	Name: "deadcode",
	Doc: "every func, method, type, const and var under internal/ is reachable from a main, " +
		"init or package var initialiser, or allowlisted with a reason",
	RunModule: runDeadcode,
}

// declKey identifies a declaration across analysis units: an importing
// package sees a separately type-checked copy of each library package,
// so objects are matched by source position rather than identity.
type declKey struct {
	file string
	off  int
}

// deadcodeDecl is one declared object and the declarations it uses.
type deadcodeDecl struct {
	obj   types.Object
	pkg   string
	uses  []declKey
	group *[]declKey // every member of its iota group
}

type deadcodeState struct {
	m       *ModulePass
	decls   map[declKey]*deadcodeDecl
	order   []declKey
	methods map[declKey][]declKey // receiver type → its methods
	ifaces  map[string]bool       // method names of every interface
	roots   []declKey
	hasMain bool
}

func runDeadcode(m *ModulePass) {
	// The interfaces no export data shows: the universe's error, and the
	// function-local ones errors.Is/As/Unwrap assert.
	st := &deadcodeState{m: m, decls: map[declKey]*deadcodeDecl{}, methods: map[declKey][]declKey{},
		ifaces: map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}}
	seen := map[*types.Package]bool{}
	for _, pkg := range m.Pkgs {
		st.collectInterfaces(pkg.Pkg, seen)
		for _, tv := range pkg.Info.Types {
			st.addInterface(tv.Type)
		}
		for _, f := range pkg.Files {
			if !m.isTestFile(f) {
				st.collectFile(pkg, f)
			}
		}
	}
	if !st.hasMain {
		return
	}
	live := st.reach()
	for _, k := range st.order {
		d := st.decls[k]
		if live[k] || d.obj.Name() == "_" || !isInternal(d.pkg) || m.Config.deadcodeAllowed(d.pkg, d.obj) {
			continue
		}
		m.Reportf(d.obj.Pos(), "%s %s is reachable only from tests (or nothing): delete it, give it a consumer, "+
			"or allowlist it in DeadcodeAllow with a reason", objKind(d.obj), declName(d.obj))
	}
}

// isInternal reports whether pkg sits under an internal/ directory: only
// its own module can import it, so a declaration nothing in the loaded
// module reaches has no consumer anywhere.
func isInternal(pkg string) bool {
	return strings.Contains("/"+pkg+"/", "/internal/")
}

// collectInterfaces records the method names of every named interface in
// pkg and, transitively, in the packages it imports.
func (st *deadcodeState) collectInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if pkg == nil || seen[pkg] {
		return
	}
	seen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			st.addInterface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		st.collectInterfaces(imp, seen)
	}
}

func (st *deadcodeState) addInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			st.ifaces[it.Method(i).Name()] = true
		}
	}
}

func (st *deadcodeState) key(obj types.Object) declKey {
	pos := st.m.Fset.Position(obj.Pos())
	return declKey{pos.Filename, pos.Offset}
}

// collectFile records the file's declarations, their uses and the roots.
func (st *deadcodeState) collectFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			obj := pkg.Info.Defs[decl.Name]
			if obj == nil {
				continue
			}
			st.add(pkg, obj, decl)
			k := st.key(obj)
			if decl.Recv != nil {
				if named := recvNamed(obj); named != nil {
					recv := st.key(named.Obj())
					st.methods[recv] = append(st.methods[recv], k)
				}
			} else if decl.Name.Name == "main" && pkg.Pkg.Name() == "main" {
				st.roots = append(st.roots, k)
				st.hasMain = true
			} else if decl.Name.Name == "init" {
				st.roots = append(st.roots, k)
			}
		case *ast.GenDecl:
			// An iota group is one declaration: dropping a member would
			// renumber the rest.
			var group *[]declKey
			if decl.Tok == token.CONST && usesIota(decl) {
				group = new([]declKey)
			}
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					st.add(pkg, pkg.Info.Defs[spec.Name], spec)
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						obj := pkg.Info.Defs[name]
						if obj == nil {
							continue
						}
						d := st.add(pkg, obj, spec)
						if group != nil {
							d.group = group
							*group = append(*group, st.key(obj))
						}
						if decl.Tok == token.VAR && len(spec.Values) > 0 {
							st.roots = append(st.roots, st.key(obj))
						}
					}
				}
			}
		}
	}
}

// add records obj, declared by node, with every object node uses.
func (st *deadcodeState) add(pkg *Package, obj types.Object, node ast.Node) *deadcodeDecl {
	d := &deadcodeDecl{obj: obj, pkg: pkg.Pkg.Path()}
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		used := pkg.Info.Uses[id]
		switch o := used.(type) {
		case nil:
			return true
		case *types.Func:
			used = o.Origin()
		case *types.Var:
			used = o.Origin()
		}
		if used.Pkg() != nil && used.Pos().IsValid() {
			d.uses = append(d.uses, st.key(used))
		}
		return true
	})
	k := st.key(obj)
	st.decls[k] = d
	st.order = append(st.order, k)
	return d
}

// reach walks the use graph from the roots.
func (st *deadcodeState) reach() map[declKey]bool {
	live := map[declKey]bool{}
	stack := append([]declKey{}, st.roots...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := st.decls[k]
		if live[k] || d == nil {
			continue
		}
		live[k] = true
		stack = append(stack, d.uses...)
		if d.group != nil {
			stack = append(stack, *d.group...)
		}
		for _, mk := range st.methods[k] {
			if st.ifaces[st.decls[mk].obj.Name()] {
				stack = append(stack, mk)
			}
		}
	}
	return live
}

// deadcodeAllowed reports whether obj (declared in pkg) or its whole
// package is allowlisted.
func (c *Config) deadcodeAllowed(pkg string, obj types.Object) bool {
	if _, ok := c.DeadcodeAllow[pkg]; ok {
		return true
	}
	_, ok := c.DeadcodeAllow[pkg+"."+declName(obj)]
	return ok
}

// declName spells obj the way DeadcodeAllow keys it: "Name", or
// "Recv.Name" for methods (pointer receivers without the star).
func declName(obj types.Object) string {
	if named := recvNamed(obj); named != nil {
		return named.Obj().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// recvNamed returns the receiver's named type when obj is a method.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		if recvNamed(obj) != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// usesIota reports whether a const group numbers its members with iota.
func usesIota(decl *ast.GenDecl) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
