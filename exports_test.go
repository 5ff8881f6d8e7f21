package repro_bench

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportUsers are the trees whose non-test files count as users of a name
// declared under internal/. The benchmark module compiles against internal/
// too, so what only it names is used.
var exportUsers = []string{"internal", "cmd", "examples", "benchmark"}

// unusedAllowlist lists the exports under internal/ that no non-test file
// names, one a line with the reason it stays.
const unusedAllowlist = "testdata/unused_exports.txt"

// export is one exported declaration under internal/: a top-level func,
// type, var or const, or a method.
type export struct {
	name string // pkg.Name or pkg.Type.Method
	key  string // the use key that names it
	file string
	span [2]token.Pos // the declaration, which does not count as a use
}

// use is one place a non-test file names something.
type use struct {
	key  string // import path + "." + name, or "." + method name
	file string
	pos  token.Pos
}

// scanExports parses every non-test Go file under the user trees and
// returns the exports under internal/ and the names the files use.
func scanExports(t *testing.T) ([]export, []use) {
	t.Helper()
	fset := token.NewFileSet()
	type parsed struct {
		path, pkg string // import path of the file's package, and its name
		f         *ast.File
	}
	var files []parsed
	pkgName := map[string]string{}
	for _, root := range exportUsers {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imp := "repro/" + filepath.ToSlash(filepath.Dir(path))
			files = append(files, parsed{imp, f.Name.Name, f})
			pkgName[imp] = f.Name.Name
			return nil
		})
		if err != nil {
			t.Fatalf("scan %s: %v", root, err)
		}
	}

	var exports []export
	var uses []use
	for _, p := range files {
		file := fset.Position(p.f.Pos()).Filename
		if strings.HasPrefix(p.path, "repro/internal/") {
			for _, decl := range p.f.Decls {
				span := [2]token.Pos{decl.Pos(), decl.End()}
				add := func(name, key string) {
					exports = append(exports, export{p.pkg + "." + name, key, file, span})
				}
				switch d := decl.(type) {
				case *ast.FuncDecl:
					switch {
					case !d.Name.IsExported():
					case d.Recv == nil:
						add(d.Name.Name, p.path+"."+d.Name.Name)
					default:
						add(receiverName(d.Recv.List[0].Type)+"."+d.Name.Name, "."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(s.Name.Name, p.path+"."+s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									add(n.Name, p.path+"."+n.Name)
								}
							}
						}
					}
				}
			}
		}

		imports := map[string]string{}
		for _, is := range p.f.Imports {
			path := strings.Trim(is.Path.Value, `"`)
			name := pkgName[path]
			if is.Name != nil {
				name = is.Name.Name
			}
			if name != "" {
				imports[name] = path
			}
		}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A receiver names its type, but a method does not use it.
				ast.Inspect(n.Type, walk)
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						uses = append(uses, use{path + "." + n.Sel.Name, file, n.Pos()})
						return false
					}
				}
				uses = append(uses, use{"." + n.Sel.Name, file, n.Sel.Pos()})
				ast.Inspect(n.X, walk)
				return false
			case *ast.Ident:
				uses = append(uses, use{p.path + "." + n.Name, file, n.Pos()})
			}
			return true
		}
		for _, decl := range p.f.Decls {
			ast.Inspect(decl, walk)
		}
	}
	return exports, uses
}

// receiverName is the type name of a method receiver: T of T, *T, T[P] or
// *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// unusedExports returns, sorted, the exports no non-test file names outside
// their own declaration. A top-level name is used where its package's files
// name it bare or another file names it through an import of the package. A
// method is used wherever a selector names a method or field of that name,
// whatever the receiver: without type checking the scan cannot tell
// receivers apart, so it errs towards calling a method used.
func unusedExports(t *testing.T) []string {
	exports, uses := scanExports(t)
	byKey := map[string][]use{}
	for _, u := range uses {
		byKey[u.key] = append(byKey[u.key], u)
	}
	var unused []string
	for _, e := range exports {
		used := false
		for _, u := range byKey[e.key] {
			if u.file != e.file || u.pos < e.span[0] || u.pos >= e.span[1] {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, e.name)
		}
	}
	sort.Strings(unused)
	return unused
}

// readAllowlist reads the names on the allowlist, a name and its reason per
// line, blank lines and lines starting with # skipped.
func readAllowlist(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(unusedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s carries no reason", unusedAllowlist, name)
		}
		if allowed[name] {
			t.Errorf("%s: %s is listed twice", unusedAllowlist, name)
		}
		allowed[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

// TestNoUnlistedUnusedExports is the ratchet on exports nothing uses: every
// exported declaration under internal/ that no non-test file in internal/,
// cmd/, examples/ or benchmark/ names must be on the allowlist with a reason,
// and every name on the allowlist must still be such an export. An export
// only its tests call fails here until it is deleted or listed.
func TestNoUnlistedUnusedExports(t *testing.T) {
	allowed := readAllowlist(t)
	unused := unusedExports(t)
	for _, name := range unused {
		if !allowed[name] {
			t.Errorf("%s is exported, but no non-test file names it: delete it, or list it in %s with the reason it stays", name, unusedAllowlist)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("%s is listed in %s, but it is used or gone: take it off the list", name, unusedAllowlist)
	}
}
