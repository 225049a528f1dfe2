package omega

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerExempt names internal functions and methods kept without a
// non-test caller: the Reference* oracles (matched by prefix) that tests
// compare simulated results against, and shared test fixtures. A method
// is named "importpath.Type.Method".
var callerExempt = map[string]bool{
	"omega/internal/graph.FromEdges": true,
}

// TestInternalFuncsHaveCallers fails when an exported package-level
// function under internal/ is referenced only from tests. internal/
// packages cannot be imported from outside this module, so such a
// function is code that nothing the module ships runs. A reference
// counts from any non-test file of the module, perfbench included: the
// function's own package (outside its own body) or another package
// through its import.
func TestInternalFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset)

	// Exported package-level functions declared under internal/.
	declared := map[string]bool{} // "importpath.Name"
	for pkg, pkgFiles := range files {
		if !strings.HasPrefix(pkg, "omega/internal/") {
			continue
		}
		for _, f := range pkgFiles {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					declared[pkg+"."+fd.Name.Name] = true
				}
			}
		}
	}

	used := map[string]bool{}
	for pkg, pkgFiles := range files {
		for _, f := range pkgFiles {
			markUses(f, pkg, used)
		}
	}
	var orphans []string
	for fn := range declared {
		name := fn[strings.LastIndex(fn, ".")+1:]
		if !used[fn] && !callerExempt[fn] && !strings.HasPrefix(name, "Reference") {
			orphans = append(orphans, fn)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("%d internal functions have no non-test caller (delete them, or exempt a test oracle):\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
}

// markUses records in used every "importpath.Name" that f, a file of
// package pkg, references as a package-level identifier: a selector
// through one of its imports, or a bare name of its own package. A
// function's own name and its recursive calls are not uses.
func markUses(f *ast.File, pkg string, used map[string]bool) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	for _, decl := range f.Decls {
		// A function's own name and its recursive calls are not callers.
		var declName *ast.Ident
		self := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			declName = fd.Name
			if fd.Recv == nil {
				self = fd.Name.Name
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// pkg.Func is a reference into pkg; x.Field or x.Method
				// names no package-level function, so only x is walked.
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if n != declName && n.Name != self {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(decl, visit)
	}
}

// parseModule parses every non-test Go file of the module (perfbench,
// cmd/ and examples/ included; testdata and dot directories skipped) that
// the default build context selects, keyed by package import path.
func parseModule(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	files := map[string][]*ast.File{}
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("omega", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// errorsProtocol declares the methods package errors dispatches through
// anonymous interfaces (errors.Is, errors.As, errors.Unwrap): no named
// interface of the standard library carries them.
const errorsProtocol = `package errorsprotocol
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// moduleImporter type-checks the module's packages from their non-test
// files on demand and resolves everything else through the standard
// library's source importer. All packages share one types.Info.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}

// TestInternalMethodsHaveCallers fails when a method declared under
// internal/ is referenced only from tests. It type-checks every non-test
// file of the module (perfbench, cmd/ and examples/ included) with
// go/types, so a use resolves to the one method it selects: a method
// sharing its name with a used method of another type is still caught.
// A use inside the method's own body is not a caller. Exempt are the
// methods of the types omega.go re-exports (public API), methods that
// implement an interface method (called through dynamic dispatch, which
// names no concrete method), and the callerExempt/Reference* oracles.
func TestInternalMethodsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset)
	im := &moduleImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: files,
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := im.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	// Methods declared under internal/, with the extent of their
	// declarations (a use inside the declaration is the method itself).
	type decl struct{ pos, end token.Pos }
	methods := map[*types.Func]decl{}
	for _, p := range paths {
		if !strings.HasPrefix(p, "omega/internal/") {
			continue
		}
		for _, f := range files[p] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					methods[im.info.Defs[fd.Name].(*types.Func)] = decl{fd.Pos(), fd.End()}
				}
			}
		}
	}
	used := map[*types.Func]bool{}
	for id, obj := range im.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := methods[fn]; ok && (id.Pos() < d.pos || id.Pos() >= d.end) {
			used[fn] = true
		}
	}

	// Public API: the types omega.go aliases.
	public := map[*types.TypeName]bool{}
	for id, obj := range im.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() && tn.Pkg().Path() == "omega" && fset.Position(id.Pos()).Filename == "omega.go" {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[n.Obj()] = true
			}
		}
	}

	// Interfaces a method can implement: every interface type written in
	// the module, every named interface of the standard library packages
	// it reaches, error, and package errors' anonymous protocol.
	var ifaces []*types.Interface
	for _, tv := range im.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			collect(q)
		}
	}
	for _, p := range im.pkgs {
		collect(p)
	}
	ep, err := parser.ParseFile(fset, "errorsprotocol.go", errorsProtocol, 0)
	if err != nil {
		t.Fatal(err)
	}
	epkg, err := new(types.Config).Check("errorsprotocol", fset, []*ast.File{ep}, nil)
	if err != nil {
		t.Fatal(err)
	}
	collect(epkg)
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// implements reports whether method name of named serves an
	// interface; *T's method set includes T's.
	implements := func(named *types.Named, name string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == name && types.Implements(types.NewPointer(named), it) {
					return true
				}
			}
		}
		return false
	}

	var orphans []string
	for fn := range methods {
		if used[fn] || strings.HasPrefix(fn.Name(), "Reference") {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named := recv.(*types.Named)
		key := fmt.Sprintf("%s.%s.%s", fn.Pkg().Path(), named.Obj().Name(), fn.Name())
		if callerExempt[key] || public[named.Obj()] || implements(named, fn.Name()) {
			continue
		}
		orphans = append(orphans, key)
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("%d internal methods have no non-test caller (delete them, or move a test oracle into a _test.go file):\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
}
