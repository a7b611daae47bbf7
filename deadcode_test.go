package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAllow lists what TestNoDeadExportsOrWriteOnlyFields may find, each
// with the reason it stays. An entry the check no longer finds fails
// too, so the list only ever shrinks to what is true.
var deadAllow = map[string]string{
	"export internal/core.F64":                             "the zero Precision, which callers get by leaving Local.Precision unset",
	"export internal/core.SolveStarContext":                "the cancellable SolveStar, the star operator's counterpart of SolveContext",
	"export internal/faultinject.OpMkdir":                  "a fault rule names its operation by this string; the Op set covers every filesystem call the injector wraps",
	"export internal/faultinject.OpRead":                   "a fault rule names its operation by this string; the Op set covers every filesystem call the injector wraps",
	"export internal/faultinject.OpReadDir":                "a fault rule names its operation by this string; the Op set covers every filesystem call the injector wraps",
	"export internal/faultinject.OpRemove":                 "a fault rule names its operation by this string; the Op set covers every filesystem call the injector wraps",
	"export internal/kernels.BroadcastColor":               "Figure 5's color tessellation, documented beside the exported NumStencilColors it is taken modulo",
	"export internal/kernels.CheckpointVersion":            "the checkpoint format version, the documented compatibility contract of a checkpoint file",
	"export internal/kernels.FIFODepth":                    "Listing 1's product FIFO depth, the paper's constant 20",
	"export internal/perfmodel.TileVectorWords":            "§IV's 10·Z-words-per-tile accounting that TileVectorBytes and MaxZ are stated in",
	"export internal/perfmodel.WordBytes":                  "the fp16 word width every §IV memory formula is stated in",
	"export internal/perfmodel.Words2D":                    "the 2D mapping's 17·b²+16-word footprint that MaxBlock2D solves for b ≤ 38",
	"export internal/service.StateRunning":                 "one JobState of the job API; clients read it as the JSON string \"running\"",
	"export internal/solver.KindOther":                     "the Kind of operations outside the three Table I kernels, one of the kinds Counters reports",
	"export internal/stencilc.ColEast":                     "a directional exchange color offset; both lowerings share the one assignment ExchangeColorsDistinct checks",
	"export internal/stencilc.ColNorth":                    "a directional exchange color offset; both lowerings share the one assignment ExchangeColorsDistinct checks",
	"export internal/stencilc.ColSouth":                    "a directional exchange color offset; both lowerings share the one assignment ExchangeColorsDistinct checks",
	"export internal/stencilc.ColWest":                     "a directional exchange color offset; both lowerings share the one assignment ExchangeColorsDistinct checks",
	"export internal/stencilc.FP16":                        "the zero Precision, which a Spec gets by leaving Precision unset",
	"export internal/stencilc.ReduceNone":                  "the zero Reduce, which a Spec gets by leaving Reduce unset",
	"export internal/stencilc.RouteExchange":               "programs the exchange routes whose entry order perfmodel's replay documents itself against",
	"field internal/core.HeatStep.U":                       "the temperature field after each step, the result a RunHeat caller steps for; today's callers print only Energy",
	"field internal/service.machineKey.nx":                 "a warm-cache map key field, read by the map's hashing and equality",
	"field internal/service.machineKey.ny":                 "a warm-cache map key field, read by the map's hashing and equality",
	"field internal/service.machineKey.nz":                 "a warm-cache map key field, read by the map's hashing and equality",
	"field internal/service.machineKey.workers":            "a warm-cache map key field, read by the map's hashing and equality",
	"method internal/perfmodel.IterModel.FractionOfPeak":   "one term of the headline (µs, PFLOPS, fraction of peak) triple Headline returns",
	"method internal/perfmodel.IterModel.IterationSeconds": "the modelled seconds per iteration that PFLOPS and the projections are stated in",
	"method internal/perfmodel.MWBreakdown.OnWafer":        "the on-wafer share of a multi-wafer iteration, the term Total scales by η",
	"method internal/solver.Counters.SetKind":              "how the BiCGStab recurrence attributes each operation to a Table I kernel",
	"method internal/solver.F64.OperatorOf":                "adapts a stencil of any shape to the float64 context; Host.Solve runs every operator kind through it",
}

// goFile is one parsed source file of the module or of benchmark/.
type goFile struct {
	dir  string // slash path from the repository root, "." for the root
	test bool
	ast  *ast.File
}

// parseTree parses every .go file under the repository root.
func parseTree(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  path.Dir(filepath.ToSlash(p)),
			test: strings.HasSuffix(p, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importPath maps a directory to its import path: benchmark/ is module
// repro/benchmark, so one rule serves both modules.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + dir
}

// TestNoDeadExportsOrWriteOnlyFields keeps the tree small mechanically.
// From the syntax alone (go/parser, no type checker) it lists:
//   - exported identifiers declared under internal/ that nothing
//     references outside their own package's non-test files — no other
//     package and no test — so they are dead or could be unexported;
//     a type named in its package's exported API counts as referenced,
//     a method of an exported type when any such file selects its name;
//   - struct fields that are assigned (a plain assignment, an op-assign,
//     ++/-- or a composite-literal key) but never read anywhere, tests
//     included; fields with a struct tag are read by their encoder.
//
// Matching is by name, so the check errs toward "referenced": it can
// miss dead code but does not invent it. Any finding outside deadAllow
// fails.
func TestNoDeadExportsOrWriteOnlyFields(t *testing.T) {
	files := parseTree(t)
	pkgName := map[string]string{} // import path → package name
	for _, f := range files {
		if !f.test {
			pkgName[importPath(f.dir)] = f.ast.Name.Name
		}
	}

	type place struct {
		dir  string
		test bool
	}
	qualified := map[string]bool{}    // "path.Name" selected from another package or a test
	testIdents := map[string]bool{}   // "dir.Name" named bare in a test of dir
	selectors := map[string][]place{} // selected name → where
	reads, writes := map[string][]place{}, map[string][]place{}
	for _, f := range files {
		here := place{f.dir, f.test}
		local := map[string]string{} // import name → path
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := path.Base(p)
			if n, ok := pkgName[p]; ok {
				name = n
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			local[name] = p
		}
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						if s, ok := l.(*ast.SelectorExpr); ok {
							written[s] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if s, ok := n.X.(*ast.SelectorExpr); ok {
					written[s] = true
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id.Name] = append(writes[id.Name], here)
						}
					}
				}
			case *ast.Ident:
				if f.test {
					testIdents[f.dir+"."+n.Name] = true
				}
			case *ast.SelectorExpr:
				name := n.Sel.Name
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := local[x.Name]; ok {
						if f.test || importPath(f.dir) != p {
							qualified[p+"."+name] = true
						}
						return true
					}
				}
				selectors[name] = append(selectors[name], here)
				if written[n] {
					writes[name] = append(writes[name], here)
				} else {
					reads[name] = append(reads[name], here)
				}
			}
			return true
		})
	}
	// usedOutside reports whether name is selected anywhere but dir's
	// non-test files.
	usedOutside := func(name, dir string) bool {
		for _, p := range selectors[name] {
			if p.test || p.dir != dir {
				return true
			}
		}
		return false
	}
	// seen reports whether a field name occurs in uses visible from dir:
	// anywhere when exported, in dir's own files otherwise.
	seen := func(uses []place, name, dir string) bool {
		for _, p := range uses {
			if ast.IsExported(name) || p.dir == dir {
				return true
			}
		}
		return false
	}

	// A type named in its package's exported signatures, fields or
	// types leaves the package with their values, named or not.
	api := map[string]bool{} // "dir.Name"
	for _, f := range files {
		if !f.test {
			for _, name := range apiTypeNames(f.ast) {
				api[f.dir+"."+name] = true
			}
		}
	}

	var found []string
	for _, f := range files {
		if f.test {
			continue
		}
		dir := f.dir
		internal := strings.HasPrefix(dir, "internal/")
		deadExport := func(key, name string) {
			if internal && ast.IsExported(name) && !qualified[importPath(dir)+"."+name] &&
				!testIdents[dir+"."+name] && !api[dir+"."+name] {
				found = append(found, "export "+key)
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					deadExport(dir+"."+d.Name.Name, d.Name.Name)
				} else if recv := recvName(d.Recv); internal && ast.IsExported(recv) &&
					d.Name.IsExported() && !usedOutside(d.Name.Name, dir) {
					found = append(found, "method "+dir+"."+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							deadExport(dir+"."+id.Name, id.Name)
						}
					case *ast.TypeSpec:
						deadExport(dir+"."+s.Name.Name, s.Name.Name)
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fld := range st.Fields.List {
							if fld.Tag != nil {
								continue
							}
							for _, id := range fld.Names {
								if seen(writes[id.Name], id.Name, dir) && !seen(reads[id.Name], id.Name, dir) {
									found = append(found, "field "+dir+"."+s.Name.Name+"."+id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(found)
	listed := map[string]bool{}
	for _, k := range found {
		listed[k] = true
		if _, ok := deadAllow[k]; !ok {
			t.Errorf("%s: unreferenced outside its package, or written but never read; delete it, unexport it, or add it to deadAllow with a reason", k)
		}
	}
	for k := range deadAllow {
		if !listed[k] {
			t.Errorf("deadAllow entry %s is no longer found; remove it", k)
		}
	}
}

// apiTypeNames lists the identifiers named in the file's exported
// surface: the signatures of exported functions and of exported methods
// on exported types, the types of exported fields, and the definitions
// of exported non-struct types.
func apiTypeNames(f *ast.File) []string {
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
	var names []string
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names = append(names, id.Name)
			}
			return true
		})
	}
	return names
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
