package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The TestArch tests state the repository's architecture over one
// go/types load of both modules: the layering rules, the package-doc
// rule, dead exports and write-only fields, and code no binary reaches.
// Run them alone with `go test -run '^TestArch' -v .`.

// archAllow lists what TestArchExports and TestArchReachable may find,
// each with the reason it stays. An entry the checks no longer find
// fails too, so the list only ever shrinks to what is true.
var archAllow = map[string]string{
	"export internal/core.F64":                             "the zero Precision, which callers get by leaving Local.Precision unset",
	"export internal/core.SolveStarContext":                "the cancellable SolveStar, the star operator's counterpart of SolveContext",
	"export internal/faultinject.OpMkdir":                  "a fault rule names its operation by this string; the Op set covers every filesystem call the injector wraps",
	"export internal/faultinject.OpRead":                   "a fault rule names its operation by this string; the Op set covers every filesystem call the injector wraps",
	"export internal/faultinject.OpReadDir":                "a fault rule names its operation by this string; the Op set covers every filesystem call the injector wraps",
	"export internal/faultinject.OpRemove":                 "a fault rule names its operation by this string; the Op set covers every filesystem call the injector wraps",
	"export internal/kernels.BroadcastColor":               "Figure 5's color tessellation, documented beside the exported NumStencilColors it is taken modulo",
	"export internal/kernels.FIFODepth":                    "Listing 1's product FIFO depth, the paper's constant 20",
	"export internal/perfmodel.TileVectorWords":            "§IV's 10·Z-words-per-tile accounting that TileVectorBytes and MaxZ are stated in",
	"export internal/perfmodel.WordBytes":                  "the fp16 word width every §IV memory formula is stated in",
	"export internal/perfmodel.Words2D":                    "the 2D mapping's 17·b²+16-word footprint that MaxBlock2D solves for b ≤ 38",
	"export internal/service.StateRunning":                 "one JobState of the job API; clients read it as the JSON string \"running\"",
	"export internal/solver.KindOther":                     "the Kind of operations outside the three Table I kernels, one of the kinds Counters reports",
	"export internal/stencilc.FP16":                        "the zero Precision, which a Spec gets by leaving Precision unset",
	"export internal/stencilc.ReduceNone":                  "the zero Reduce, which a Spec gets by leaving Reduce unset",
	"export internal/stencilc.RouteExchange":               "programs the exchange routes whose entry order perfmodel's replay documents itself against",
	"field internal/core.HeatStep.U":                       "the temperature field after each step, the result a RunHeat caller steps for; today's callers print only Energy",
	"method internal/perfmodel.IterModel.FractionOfPeak":   "one term of the headline (µs, PFLOPS, fraction of peak) triple Headline returns",
	"method internal/perfmodel.IterModel.PFLOPS":           "one term of the headline (µs, PFLOPS, fraction of peak) triple Headline returns",
	"method internal/perfmodel.IterModel.IterationSeconds": "the modelled seconds per iteration that PFLOPS and the projections are stated in",
	"method internal/perfmodel.MWBreakdown.OnWafer":        "the on-wafer share of a multi-wafer iteration, the term Total scales by η",
	"method internal/solver.Counters.SetKind":              "how the BiCGStab recurrence attributes each operation to a Table I kernel",
	"method internal/solver.F64.OperatorOf":                "adapts a stencil of any shape to the float64 context; Host.Solve runs every operator kind through it",
}

// archPkg is one package of a load. Its non-test and in-package test
// files are type-checked as one unit, so every importer, test or not,
// sees one types.Package per import path; an external _test package is
// checked apart.
type archPkg struct {
	path, dir, name string      // dir is a slash path from the load's root
	files, xfiles   []*ast.File // package files (tests included), external test files
	types           *types.Package
	checking        bool
}

// archTree is every package of a load under one types.Info.
type archTree struct {
	fset   *token.FileSet
	info   *types.Info
	pkgs   []*archPkg // sorted by import path
	byPath map[string]*archPkg
}

func (tr *archTree) isTest(pos token.Pos) bool {
	return strings.HasSuffix(tr.fset.Position(pos).Filename, "_test.go")
}

// files calls fn for every file of every package, tests included.
func (tr *archTree) files(fn func(p *archPkg, f *ast.File, test bool)) {
	for _, p := range tr.pkgs {
		for _, f := range append(p.files[:len(p.files):len(p.files)], p.xfiles...) {
			fn(p, f, tr.isTest(f.Pos()))
		}
	}
}

var arch struct {
	once sync.Once
	tree *archTree
	err  error
}

// loadArch loads the repository once per test binary: the root module
// and benchmark/, a module of its own.
func loadArch(t *testing.T) *archTree {
	t.Helper()
	arch.once.Do(func() { arch.tree, arch.err = loadTree(".", ".", "benchmark") })
	if arch.err != nil {
		t.Fatal(arch.err)
	}
	return arch.tree
}

// listedPkg is the part of go list's JSON a load reads.
type listedPkg struct {
	ImportPath, Dir, Name, ForTest, Export string
	Standard                               bool
	GoFiles, TestGoFiles, XTestGoFiles     []string
}

func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,Name,ForTest,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// loadTree lists ./... with test dependencies in each module directory
// (relative to root), parses every package it finds outside the
// standard library and type-checks it from source. Standard-library
// imports come from the compiler's export data, found by one more go
// list, so the load runs offline.
func loadTree(root string, modules ...string) (*archTree, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	tree := &archTree{fset: token.NewFileSet(), byPath: map[string]*archPkg{}, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	imported := map[string]bool{}
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(tree.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, im := range f.Imports {
				imported[strings.Trim(im.Path.Value, `"`)] = true
			}
			files = append(files, f)
		}
		return files, nil
	}
	for _, m := range modules {
		listed, err := goList(filepath.Join(root, m), "-deps", "-test", "./...")
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			// Skip the standard library, test variants and test mains,
			// and a package both modules list.
			if lp.Standard || lp.ForTest != "" || strings.HasSuffix(lp.ImportPath, ".test") || tree.byPath[lp.ImportPath] != nil {
				continue
			}
			rel, err := filepath.Rel(absRoot, lp.Dir)
			if err != nil {
				return nil, err
			}
			p := &archPkg{path: lp.ImportPath, dir: filepath.ToSlash(rel), name: lp.Name}
			if p.files, err = parse(lp.Dir, append(lp.GoFiles, lp.TestGoFiles...)); err != nil {
				return nil, err
			}
			if p.xfiles, err = parse(lp.Dir, lp.XTestGoFiles); err != nil {
				return nil, err
			}
			tree.byPath[p.path] = p
			tree.pkgs = append(tree.pkgs, p)
		}
	}
	sort.Slice(tree.pkgs, func(i, j int) bool { return tree.pkgs[i].path < tree.pkgs[j].path })

	var std []string
	for ip := range imported {
		if tree.byPath[ip] == nil && ip != "unsafe" {
			std = append(std, ip)
		}
	}
	export := map[string]string{}
	if len(std) > 0 {
		listed, err := goList(root, append([]string{"-export"}, std...)...)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			export[lp.ImportPath] = lp.Export
		}
	}
	im := &archImporter{tree: tree, std: importer.ForCompiler(tree.fset, "gc", func(ip string) (io.ReadCloser, error) {
		return os.Open(export[ip])
	})}
	for _, p := range tree.pkgs {
		if _, err := im.Import(p.path); err != nil {
			return nil, err
		}
		if len(p.xfiles) > 0 {
			conf := types.Config{Importer: im}
			if _, err := conf.Check(p.path+"_test", tree.fset, p.xfiles, tree.info); err != nil {
				return nil, err
			}
		}
	}
	return tree, nil
}

// archImporter type-checks a package of the load on its first import.
type archImporter struct {
	tree *archTree
	std  types.Importer
}

func (im *archImporter) Import(ip string) (*types.Package, error) {
	p := im.tree.byPath[ip]
	switch {
	case p == nil:
		return im.std.Import(ip)
	case p.types != nil:
		return p.types, nil
	case p.checking:
		return nil, fmt.Errorf("import cycle through %s once in-package test imports count", ip)
	}
	p.checking = true
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(p.path, im.tree.fset, p.files, im.tree.info)
	p.types = pkg
	return pkg, err
}

// TestArchLoad guards the load every other TestArch rule reads: an
// empty or partial load must not pass as "nothing found".
func TestArchLoad(t *testing.T) {
	tree := loadArch(t)
	listed := 0
	for _, m := range []string{".", "benchmark"} {
		pkgs, err := goList(m, "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, lp := range pkgs {
			listed++
			if p := tree.byPath[lp.ImportPath]; p == nil || p.types == nil {
				t.Errorf("go list reports %s, the load did not type-check it", lp.ImportPath)
			}
		}
	}
	mains := buildGraph(tree).mains
	for _, top := range []string{"cmd", "examples", "benchmark"} {
		if mains[top] == 0 {
			t.Errorf("no main package under %s/ was loaded", top)
		}
	}
	t.Logf("%d packages type-checked, %d listed by go list ./...; mains: %v", len(tree.pkgs), listed, mains)
}

// key names a package-level object of the load "dir.Name" and a method
// "dir.Recv.Name"; it is "" for an object outside the load.
func (tr *archTree) key(obj types.Object) string {
	if obj.Pkg() == nil || tr.byPath[obj.Pkg().Path()] == nil {
		return ""
	}
	dir := tr.byPath[obj.Pkg().Path()].dir
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return dir + "." + typeName(recv.Type()) + "." + obj.Name()
		}
	}
	return dir + "." + obj.Name()
}

// typeName is the name of a named type or of a pointer to one.
func typeName(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}

// origin maps an instantiated function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isAbstract reports whether fn is an interface method, which a call
// reaches only through some concrete method of that name.
func isAbstract(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// uses calls fn for every identifier under n that refers to an object.
func (tr *archTree) uses(n ast.Node, fn func(id *ast.Ident, obj types.Object)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := tr.info.Uses[id]; obj != nil {
				fn(id, origin(obj))
			}
		}
		return true
	})
}

// archGone are names declared nowhere, tests included: per-shape solve
// seams (solver.Backend is the one seam), the Figure 6 AllReduce's
// hand-written role flags, receive counts and route chains
// (NewAllReduce's lines and parent tree are the one author of its
// schedule), and a 2D-only copy of SIMPLE's index helpers (one
// mfix.Cavity covers D = 2 and 3).
var archGone = setOf(`Backend2D Backend3D BackendStar Solve2D Solve3D
	isRowCtr isColCtr rowExpect colExpect quadExpect quadCol sentRow sentQuad routeChain
	unit2 addIdx2 coef9`)

// TestArchLayering states the repository's layering rules on resolved
// objects: who may import a package, who may use a function, and which
// names must not be declared again.
func TestArchLayering(t *testing.T) {
	tree := loadArch(t)

	// Imports of non-test files (an entry ending in "/" bans every
	// path under it): the exact sum behind every wafer dot is a leaf;
	// internal/cluster is the CPU baseline's timing model, which no
	// solve path, machine model or the daemon needs; and the daemon runs
	// core's pipeline on backends it holds by interface, never the
	// machine or the fp16 crossing itself.
	const joule = "repro/internal/cluster"
	banned := map[string][]string{
		"internal/exact":      {"repro/"},
		"internal/kernels":    {joule},
		"internal/multiwafer": {joule},
		"internal/perfmodel":  {joule},
		"internal/solver":     {joule},
		"internal/stencilc":   {joule},
		"internal/service":    {joule, "repro/internal/wse", "repro/internal/fp16"},
	}
	// Users, in non-test files, of an object: only stencilc turns a
	// compiled program into an exchange replay (perfmodel states its own
	// stage lists), and a job's outcome is booked in Server.finish, so
	// only it and New's recovery sweep drop a checkpoint.
	users := map[string][]string{
		"internal/perfmodel.NewExchangeReplay": {"internal/stencilc.", "internal/perfmodel."},
		"internal/service.spool.removeCkpt":    {"internal/service.New", "internal/service.Server.finish"},
	}
	for id := range tree.info.Defs {
		if archGone[id.Name] {
			t.Errorf("%s: %s is declared again; TestArchLayering says why it went", tree.fset.Position(id.Pos()), id.Name)
		}
	}
	// Substrate.SpMV is where solver vectors enter and leave a compiled
	// program: kernels.ProgramSpMV writes the one function of its type.
	sub := tree.byPath["repro/internal/kernels"].types.Scope().Lookup("Substrate")
	field, _, _ := types.LookupFieldOrMethod(sub.Type(), false, sub.Pkg(), "SpMV")
	if field == nil {
		t.Fatal("kernels.Substrate.SpMV not found")
	}
	spmv := field.Type()

	docs := map[string]bool{}
	adapters := 0
	tree.files(func(p *archPkg, f *ast.File, test bool) {
		if test {
			return
		}
		for _, im := range f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			for _, b := range banned[p.dir] {
				if path == b || strings.HasSuffix(b, "/") && strings.HasPrefix(path, b) {
					t.Errorf("%s: %s must not import %s", tree.fset.Position(im.Pos()), p.dir, b)
				}
			}
		}
		if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package "+p.name+" ") {
			docs[p.dir] = true
		}
		for _, d := range f.Decls {
			encl := p.dir + ".(package-level declaration)"
			if fd, ok := d.(*ast.FuncDecl); ok {
				encl = tree.key(tree.info.Defs[fd.Name])
				if types.Identical(tree.info.Defs[fd.Name].Type(), spmv) {
					t.Errorf("%s: %s is a second program-to-substrate adapter; kernels.ProgramSpMV is the one", tree.fset.Position(fd.Pos()), encl)
				}
			}
			tree.uses(d, func(id *ast.Ident, obj types.Object) {
				if allowed, ok := users[tree.key(obj)]; ok && !hasPrefix(encl, allowed) {
					t.Errorf("%s: %s uses %s; only %v may", tree.fset.Position(id.Pos()), encl, tree.key(obj), allowed)
				}
			})
			ast.Inspect(d, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok && types.Identical(tree.info.Types[fl].Type, spmv) {
					adapters++
					if encl != "internal/kernels.ProgramSpMV" {
						t.Errorf("%s: a second program-to-substrate adapter in %s; kernels.ProgramSpMV is the one", tree.fset.Position(fl.Pos()), encl)
					}
				}
				return true
			})
		}
		// Algorithm 1's recurrence has two homes, solver.BiCGStab on the
		// host and kernels.BiCGStabEngine on the wafer; this one rule
		// reads text.
		name := tree.fset.Position(f.Pos()).Filename
		rel := p.dir + "/" + filepath.Base(name)
		if src, err := os.ReadFile(name); err != nil {
			t.Error(err)
		} else if bytes.Contains(src, []byte("alpha / omega")) && rel != "internal/solver/bicgstab.go" && rel != "internal/kernels/wsebicg.go" {
			t.Errorf("%s: Algorithm 1's recurrence outside solver.BiCGStab and kernels.BiCGStabEngine", rel)
		}
	})
	if adapters != 1 {
		t.Errorf("%d functions of Substrate.SpMV's type; want the one kernels.ProgramSpMV returns", adapters)
	}
	// Every internal package documents itself, so go doc matches what
	// README and ARCHITECTURE claim.
	for _, p := range tree.pkgs {
		if strings.HasPrefix(p.dir, "internal/") && !docs[p.dir] {
			t.Errorf("%s: no non-test file carries a \"// Package %s ...\" doc comment", p.dir, p.name)
		}
	}
}

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// TestArchExports keeps the tree small mechanically. On typed objects
// it lists:
//   - exported package-level objects declared under internal/ that
//     nothing uses outside their own package's non-test files — no
//     other package and no test — so they are dead or could be
//     unexported; a type named in its package's exported API counts as
//     used;
//   - exported methods of exported types there, used the same way,
//     directly or through an interface the type implements (see
//     viaInterface);
//   - struct fields that are written (a plain assignment, an op-assign,
//     ++/-- or a composite-literal key) but never read anywhere, tests
//     included; a field with a struct tag is read by its encoder, and
//     the fields of a struct used as a map key or compared with == are
//     read by hashing or comparing.
//
// Any finding outside archAllow fails.
func TestArchExports(t *testing.T) {
	checkAllowed(t, "export", archExports(loadArch(t)))
}

func archExports(tree *archTree) []string {
	usedOut := map[types.Object]bool{} // used outside the declaring package's non-test files
	ifaceUses := map[string][]ifaceUse{}
	api := map[types.Object]bool{} // types named in a package's exported API
	written := map[*ast.Ident]bool{}
	var compared []types.Type // operand types of == and !=
	tree.files(func(p *archPkg, f *ast.File, test bool) {
		tree.uses(f, func(id *ast.Ident, obj types.Object) {
			if test || obj.Pkg() != p.types {
				usedOut[obj] = true
			}
			if fn, ok := obj.(*types.Func); ok && isAbstract(fn) {
				ifaceUses[fn.Name()] = append(ifaceUses[fn.Name()], ifaceUse{fn, p.types, test})
			}
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						if s, ok := l.(*ast.SelectorExpr); ok {
							written[s.Sel] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if s, ok := n.X.(*ast.SelectorExpr); ok {
					written[s.Sel] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					written[id] = true
				}
			case *ast.BinaryExpr:
				if tv, ok := tree.info.Types[n.X]; ok && (n.Op == token.EQL || n.Op == token.NEQ) {
					compared = append(compared, tv.Type)
				}
			}
			return true
		})
		if test {
			return
		}
		for _, e := range apiExprs(f) {
			tree.uses(e, func(_ *ast.Ident, obj types.Object) { api[obj] = true })
		}
	})
	// A field is read when some use does not write it, or when its
	// struct is (part of) a map key or an operand of == or !=.
	writes, reads := map[types.Object]bool{}, map[types.Object]bool{}
	for id, obj := range tree.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if written[id] {
				writes[v.Origin()] = true
			} else {
				reads[v.Origin()] = true
			}
		}
	}
	for _, tv := range tree.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(m.Key(), reads)
		}
	}
	for _, t := range compared {
		readAll(t, reads)
	}
	var concrete []*types.Named // the load's non-interface named types
	for _, p := range tree.pkgs {
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				if n, ok := tn.Type().(*types.Named); ok {
					concrete = append(concrete, n)
				}
			}
		}
	}

	var found []string
	for _, p := range tree.pkgs {
		internal := strings.HasPrefix(p.dir, "internal/")
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if tree.isTest(obj.Pos()) {
				continue
			}
			if internal && obj.Exported() && !usedOut[obj] && !api[obj] {
				found = append(found, "export "+tree.key(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if internal && obj.Exported() {
				for m := range named.Methods() {
					if m.Exported() && !tree.isTest(m.Pos()) && !usedOut[m] && !stdMethods[m.Name()] && !viaInterface(named, m, ifaceUses[m.Name()], concrete) {
						found = append(found, "method "+tree.key(m))
					}
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					fld := st.Field(i)
					if !fld.Embedded() && st.Tag(i) == "" && writes[fld] && !reads[fld] {
						found = append(found, "field "+tree.key(tn)+"."+fld.Name())
					}
				}
			}
		}
	}
	return found
}

// ifaceUse is a use of an interface method: from a test file, or from
// a non-test file of package from.
type ifaceUse struct {
	fn   *types.Func
	from *types.Package
	test bool
}

// viaInterface reports whether m, a method of named, is used through
// an interface named implements: from outside m's package's non-test
// files, or anywhere when a type of another package implements that
// interface too, which then fixes m's name.
func viaInterface(named *types.Named, m *types.Func, uses []ifaceUse, all []*types.Named) bool {
	for _, u := range uses {
		iface := u.fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		if u.test || u.from != m.Pkg() {
			return true
		}
		for _, o := range all {
			if o.Obj().Pkg() != m.Pkg() && types.Implements(types.NewPointer(o), iface) {
				return true
			}
		}
	}
	return false
}

// readAll marks every field of a struct type as read, nested structs
// and arrays included: hashing a map key or comparing with == reads
// them all.
func readAll(t types.Type, reads map[types.Object]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			reads[u.Field(i).Origin()] = true
			readAll(u.Field(i).Type(), reads)
		}
	case *types.Array:
		readAll(u.Elem(), reads)
	}
}

// apiExprs lists the type expressions of the file's exported surface:
// the signatures of exported functions and of exported methods on
// exported types, the types of exported fields and vars, and the
// definitions of exported non-struct types.
func apiExprs(f *ast.File) []ast.Expr {
	var exprs []ast.Expr
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(recvName(d.Recv))) {
				exprs = append(exprs, d.Type)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						exprs = append(exprs, s.Type)
						continue
					}
					for _, fld := range st.Fields.List {
						if len(fld.Names) == 0 || fld.Names[0].IsExported() {
							exprs = append(exprs, fld.Type)
						}
					}
				case *ast.ValueSpec:
					if s.Type != nil && s.Names[0].IsExported() {
						exprs = append(exprs, s.Type)
					}
				}
			}
		}
	}
	return exprs
}

// recvName is the receiver's type name, without pointer or type
// parameters.
func recvName(r *ast.FieldList) string {
	x := r.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch e := x.(type) {
	case *ast.IndexExpr:
		x = e.X
	case *ast.IndexListExpr:
		x = e.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// stdMethods are the methods the standard library calls through its
// own interfaces (fmt.Stringer, error, json.Marshaler, http.Handler,
// io.Writer, sort.Interface, container/heap, flag.Value and so on),
// which no call in the load shows.
var stdMethods = setOf(`String GoString Format Error Unwrap Is As
	MarshalJSON UnmarshalJSON MarshalText UnmarshalText MarshalBinary UnmarshalBinary
	ServeHTTP Header WriteHeader Flush Read Write WriteString ReadFrom WriteTo Close Seek
	Len Less Swap Push Pop Set`)

func setOf(words string) map[string]bool {
	set := map[string]bool{}
	for _, w := range strings.Fields(words) {
		set[w] = true
	}
	return set
}

// archGraph is a conservative call graph of a load's non-test code:
// any reference from a function's declaration is an edge, and a use of
// an interface method reaches every method of that name.
type archGraph struct {
	edges  map[types.Object][]types.Object
	byName map[string][]types.Object // concrete methods
	// roots are every main under cmd/, examples/ and benchmark/, every
	// init, what a package-level initialiser uses, and the methods the
	// standard library calls; fixtures are the objects another
	// package's tests use.
	roots, fixtures []types.Object
	mains           map[string]int // main packages seen, by top directory
	checked         []types.Object // functions, methods and vars declared under internal/
}

func buildGraph(tree *archTree) *archGraph {
	g := &archGraph{edges: map[types.Object][]types.Object{}, byName: map[string][]types.Object{}, mains: map[string]int{}}
	tree.files(func(p *archPkg, f *ast.File, test bool) {
		internal := strings.HasPrefix(p.dir, "internal/")
		if test {
			tree.uses(f, func(_ *ast.Ident, obj types.Object) {
				if obj.Pkg() != nil && obj.Pkg().Path() != p.path {
					g.fixtures = append(g.fixtures, obj)
				}
			})
			return
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := tree.info.Defs[d.Name]
				tree.uses(d, func(_ *ast.Ident, u types.Object) { g.edges[obj] = append(g.edges[obj], u) })
				top, _, _ := strings.Cut(p.dir, "/")
				switch {
				case d.Recv != nil:
					g.byName[d.Name.Name] = append(g.byName[d.Name.Name], obj)
					if stdMethods[d.Name.Name] {
						g.roots = append(g.roots, obj)
					}
				case d.Name.Name == "init":
					g.roots = append(g.roots, obj)
					continue
				case d.Name.Name == "main" && p.name == "main" && (top == "cmd" || top == "examples" || top == "benchmark"):
					g.roots = append(g.roots, obj)
					g.mains[top]++
				}
				if internal {
					g.checked = append(g.checked, obj)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				tree.uses(d, func(_ *ast.Ident, u types.Object) { g.roots = append(g.roots, u) })
				for _, s := range d.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						if internal && id.Name != "_" {
							g.checked = append(g.checked, tree.info.Defs[id])
						}
					}
				}
			}
		}
	})
	return g
}

// reach returns every object the roots reach.
func (g *archGraph) reach(roots []types.Object) map[types.Object]bool {
	seen := map[types.Object]bool{}
	queue := append([]types.Object(nil), roots...)
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[obj] {
			continue
		}
		seen[obj] = true
		if fn, ok := obj.(*types.Func); ok && isAbstract(fn) {
			queue = append(queue, g.byName[fn.Name()]...)
		}
		queue = append(queue, g.edges[obj]...)
	}
	return seen
}

// unreached lists the functions, methods and vars declared under
// internal/ that neither a root nor a fixture reaches.
func unreached(tree *archTree) []string {
	g := buildGraph(tree)
	kept := g.reach(append(g.roots, g.fixtures...))
	var found []string
	for _, obj := range g.checked {
		if !kept[obj] {
			found = append(found, "unreached "+tree.key(obj))
		}
	}
	return found
}

// TestArchReachable fails on code no binary runs. A function, method
// or var under internal/ that no main, init, package-level initialiser
// or standard-library interface method reaches is dead unless another
// package's tests use it as a shared fixture: delete it, move it into
// its package's _test.go files, or list it in archAllow with the reason
// it stays.
func TestArchReachable(t *testing.T) {
	checkAllowed(t, "unreached", unreached(loadArch(t)))
}

// TestArchFuzzLists holds `make fuzz` and CI's fuzz-smoke job to one
// list of (package, target, -fuzztime) runs, and that list to the Fuzz
// functions in the tree, so a fuzzer added, renamed or deleted cannot
// drift out of either.
func TestArchFuzzLists(t *testing.T) {
	var tree []string
	loadArch(t).files(func(p *archPkg, f *ast.File, test bool) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && test && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				tree = append(tree, "./"+p.dir+" "+fn.Name.Name)
			}
		}
	})
	sort.Strings(tree)
	mk := fuzzRuns(t, "Makefile", "fuzz:", "\t")
	ci := fuzzRuns(t, filepath.Join(".github", "workflows", "ci.yml"), "  fuzz-smoke:", "    ")
	if !reflect.DeepEqual(mk, ci) {
		t.Errorf("make fuzz runs %q,\nCI's fuzz-smoke runs %q", mk, ci)
	}
	var targets []string
	for _, r := range mk {
		targets = append(targets, r[:strings.LastIndexByte(r, ' ')])
	}
	if !reflect.DeepEqual(targets, tree) {
		t.Errorf("make fuzz runs %q,\nthe tree has %q", targets, tree)
	}
}

var fuzzRun = regexp.MustCompile(`test (\./\S+) -run '\^\$+' -fuzz (\w+) -fuzztime (\w+)`)

// fuzzRuns returns, sorted, the "package target fuzztime" of every fuzz
// run in file's block that starts at the line head and goes on through
// blank lines and lines that start with indent.
func fuzzRuns(t *testing.T, file, head, indent string) []string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(b), "\n"+head+"\n")
	if !ok {
		t.Fatalf("%s has no line %q", file, head)
	}
	var runs []string
	for _, line := range strings.Split(block, "\n") {
		if line != "" && !strings.HasPrefix(line, indent) {
			break
		}
		if m := fuzzRun.FindStringSubmatch(line); m != nil {
			runs = append(runs, strings.Join(m[1:], " "))
		}
	}
	if len(runs) == 0 {
		t.Fatalf("%s: no fuzz runs under %q", file, head)
	}
	sort.Strings(runs)
	return runs
}

// TestArchWalkerFixture pins the walker's findings on a fixture tree
// with one function nothing reaches, one method reached only through an
// interface, one function reached only from a package-level var, and
// one reached only from another package's test.
func TestArchWalkerFixture(t *testing.T) {
	tree, err := loadTree(filepath.Join("testdata", "archfixture"), ".")
	if err != nil {
		t.Fatal(err)
	}
	got := unreached(tree)
	want := []string{"unreached internal/lib.Unused"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings %q, want %q", got, want)
	}
}

// checkAllowed fails on a finding of the given family that archAllow
// does not list, and on an entry of that family the check no longer
// finds.
func checkAllowed(t *testing.T, family string, found []string) {
	t.Helper()
	sort.Strings(found)
	listed := map[string]bool{}
	for _, k := range found {
		listed[k] = true
		if _, ok := archAllow[k]; !ok {
			t.Errorf("%s: delete it, unexport it, move it into a _test.go file, or add it to archAllow with a reason", k)
		}
	}
	for k := range archAllow {
		if strings.HasPrefix(k, "unreached ") == (family == "unreached") && !listed[k] {
			t.Errorf("archAllow entry %s is no longer found; remove it", k)
		}
	}
}
