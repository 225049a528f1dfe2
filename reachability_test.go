package omega

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerExempt names internal functions kept without a non-test caller:
// the Reference* oracles (matched by prefix) that tests compare
// simulated results against, and shared test fixtures.
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
	type file struct {
		pkg string // import path of the file's package
		ast *ast.File
	}
	var files []file
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{pkg: path.Join("omega", filepath.ToSlash(filepath.Dir(p))), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported package-level functions declared under internal/.
	declared := map[string]bool{} // "importpath.Name"
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "omega/internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				declared[f.pkg+"."+fd.Name.Name] = true
			}
		}
	}

	used := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		for _, decl := range f.ast.Decls {
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
						used[f.pkg+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
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
