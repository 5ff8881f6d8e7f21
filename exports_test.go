package repro_bench

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportUsers are the trees whose non-test files count as users of a name
// declared under internal/. The benchmark module compiles against internal/
// too, so what only it uses is used.
var exportUsers = []string{"internal", "cmd", "examples", "benchmark"}

// unusedAllowlist lists the declarations under internal/ that no non-test
// file uses, one a line with the reason it stays.
const unusedAllowlist = "testdata/unused_exports.txt"

// parseTrees parses every non-test Go file under the user trees and returns
// them by the import path of their package.
func parseTrees(fset *token.FileSet) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
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
			pkgs[imp] = append(pkgs[imp], f)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("scan %s: %w", root, err)
		}
	}
	return pkgs, nil
}

// importOrder returns the repro/ packages so that each comes after every
// repro/ package it imports.
func importOrder(pkgs map[string][]*ast.File) ([]string, error) {
	var order []string
	state := map[string]int{} // 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, f := range pkgs[path] {
			for _, is := range f.Imports {
				dep := strings.Trim(is.Path.Value, `"`)
				if _, ok := pkgs[dep]; ok {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// stdImporter reads the standard library from the export data the go
// command builds, asking it once for every package the files import
// rather than once a package.
func stdImporter(fset *token.FileSet, pkgs map[string][]*ast.File) (types.Importer, error) {
	var std []string
	seen := map[string]bool{}
	for _, files := range pkgs {
		for _, f := range files {
			for _, is := range f.Imports {
				path := strings.Trim(is.Path.Value, `"`)
				if _, ours := pkgs[path]; !ours && path != "unsafe" && !seen[path] {
					seen[path] = true
					std = append(std, path)
				}
			}
		}
	}
	export := map[string]string{}
	if len(std) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, std...)...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "=")
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decl is one declaration the ratchet holds to being used.
type decl struct {
	name string       // pkg.Name or pkg.Type.Method
	span [2]token.Pos // the declaration's source
}

// use is an identifier or selector that resolves to a tracked declaration.
type use struct {
	obj types.Object
	in  types.Object // the tracked declaration it sits in, or nil
}

// ifaceCall is a call of method name through the interface iface.
type ifaceCall struct {
	iface *types.Interface
	name  string
	in    types.Object // as in use
}

// handover is a value of concrete type t passed as an interface argument.
type handover struct {
	t  types.Type
	in types.Object // as in use
}

// unusedDecls type-checks pkgs, every package once in import order, and
// returns, sorted, the declarations under repro/internal/ that nothing in
// pkgs uses: exported top-level names, and functions and methods whether
// exported or not. A reference counts only where it sits outside every such
// declaration, or inside one that is itself used, so a chain of
// declarations that call only each other is reported whole; the scan
// repeats until no new declaration becomes used. A top-level name is used
// where an identifier resolves to it, except in a method's receiver: a
// method names its type but does not use it. A method is used where a
// selector resolves to it (to its generic origin, for a method of an
// instantiated type), or where a method of that name is called through an
// interface its receiver type implements. The standard library is not
// scanned, so a String or Error method also counts as used where a value
// of its type can reach an interface parameter, as fmt's arguments do.
func unusedDecls(fset *token.FileSet, pkgs map[string][]*ast.File) ([]string, error) {
	order, err := importOrder(pkgs)
	if err != nil {
		return nil, err
	}
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		return nil, err
	}
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return std.Import(path)
	})

	decls := map[types.Object]decl{}
	var methods []*types.Func
	var uses []use
	var calls []ifaceCall
	var handovers []handover
	for _, path := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, pkgs[path], info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", path, err)
		}
		checked[path] = pkg

		var spans []types.Object // this package's declarations, in source order
		track := func(obj types.Object, name string, node ast.Node) {
			decls[obj] = decl{name, [2]token.Pos{node.Pos(), node.End()}}
			spans = append(spans, obj)
		}
		inReceiver := map[token.Pos]bool{} // the identifiers of methods' receivers
		for _, f := range pkgs[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								inReceiver[id.Pos()] = true
							}
							return true
						})
					}
					if !strings.HasPrefix(path, "repro/internal/") || d.Name.Name == "init" || d.Name.Name == "_" {
						continue
					}
					fn := info.Defs[d.Name].(*types.Func)
					name := pkg.Name() + "." + d.Name.Name
					if d.Recv != nil {
						name = pkg.Name() + "." + receiverName(d.Recv.List[0].Type) + "." + d.Name.Name
						methods = append(methods, fn)
					}
					track(fn, name, d)
				case *ast.GenDecl:
					if !strings.HasPrefix(path, "repro/internal/") {
						continue
					}
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if n.IsExported() {
								track(info.Defs[n], pkg.Name()+"."+n.Name, spec)
							}
						}
					}
				}
			}
		}
		sort.Slice(spans, func(i, j int) bool { return decls[spans[i]].span[0] < decls[spans[j]].span[0] })
		// enclosing is the declaration of this package that pos sits in,
		// or nil: tracked declarations are top-level, so they never nest.
		enclosing := func(pos token.Pos) types.Object {
			i := sort.Search(len(spans), func(i int) bool { return decls[spans[i]].span[1] > pos })
			if i < len(spans) && decls[spans[i]].span[0] <= pos {
				return spans[i]
			}
			return nil
		}

		for _, f := range pkgs[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					for _, t := range handedOver(info, call) {
						handovers = append(handovers, handover{t, enclosing(call.Pos())})
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if fn.Type().(*types.Signature).Recv() != nil {
					continue // a method: its selection below decides
				}
				obj = fn.Origin()
			}
			if _, ok := decls[obj]; ok && !inReceiver[id.Pos()] {
				uses = append(uses, use{obj, enclosing(id.Pos())})
			}
		}
		for sel, s := range info.Selections {
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				continue // a field
			}
			in := enclosing(sel.Sel.Pos())
			recv := fn.Type().(*types.Signature).Recv().Type()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				calls = append(calls, ifaceCall{iface, fn.Name(), in})
				continue
			}
			if _, ok := decls[fn.Origin()]; ok {
				uses = append(uses, use{fn.Origin(), in})
			}
		}
	}

	// Each pass applies the references that sit in no declaration or in one
	// a previous pass found used, and drops them; a pass that finds nothing
	// new ends the scan.
	used := map[types.Object]bool{}
	formatted := map[types.Type]bool{}
	live := func(in types.Object) bool { return in == nil || used[in] }
	for changed := true; changed; {
		changed = false
		mark := func(obj types.Object) {
			if !used[obj] {
				used[obj] = true
				changed = true
			}
		}
		uses = slices.DeleteFunc(uses, func(u use) bool {
			if live(u.in) {
				mark(u.obj)
			}
			return live(u.in)
		})
		calls = slices.DeleteFunc(calls, func(c ifaceCall) bool {
			if !live(c.in) {
				return false
			}
			for _, m := range methods {
				if t := recvBase(m); m.Name() == c.name && (types.Implements(t, c.iface) || types.Implements(types.NewPointer(t), c.iface)) {
					mark(m)
				}
			}
			return true
		})
		handovers = slices.DeleteFunc(handovers, func(h handover) bool {
			if live(h.in) {
				markFormatted(h.t, formatted)
			}
			return live(h.in)
		})
		for _, m := range methods {
			if isStringer(m) && formatted[recvBase(m)] {
				mark(m)
			}
		}
	}

	var unused []string
	for obj, d := range decls {
		if !used[obj] {
			unused = append(unused, d.name)
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// recvBase is the type a method is declared on: T for a receiver of T or
// *T.
func recvBase(m *types.Func) types.Type {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isStringer reports whether m is a String or Error method returning a
// string: what fmt and the errors package call on the values handed to
// them.
func isStringer(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	return (m.Name() == "String" || m.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
}

// handedOver returns the concrete type of each argument call passes as an
// interface, such as one of fmt's ...any: the callee may call its String or
// Error method where the scan cannot see.
func handedOver(info *types.Info, call *ast.CallExpr) []types.Type {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return nil // a conversion
	}
	var handed []types.Type
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid():
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		handed = append(handed, at)
	}
	return handed
}

// markFormatted records t, and what fmt reaches inside it when it prints a
// value of t, in formatted: through pointers, slice, array and map
// elements, and exported struct fields.
func markFormatted(t types.Type, formatted map[types.Type]bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		t = n.Origin()
	}
	if formatted[t] {
		return
	}
	formatted[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		markFormatted(u.Elem(), formatted)
	case *types.Slice:
		markFormatted(u.Elem(), formatted)
	case *types.Array:
		markFormatted(u.Elem(), formatted)
	case *types.Map:
		markFormatted(u.Key(), formatted)
		markFormatted(u.Elem(), formatted)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				markFormatted(f.Type(), formatted)
			}
		}
	}
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

// readAllowlist reads the allowlist, a name and its reason per line, blank
// lines and lines starting with # skipped. A name is a declaration
// (pkg.Name or pkg.Type.Method) or the import path of a package only tests
// import, which stands for every declaration in it.
func readAllowlist(r io.Reader) (map[string]bool, error) {
	allowed := map[string]bool{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s carries no reason", name)
		}
		if allowed[name] {
			return nil, fmt.Errorf("%s is listed twice", name)
		}
		allowed[name] = true
	}
	return allowed, sc.Err()
}

// ratchet holds the scan's unused declarations to the allowlist and
// returns, sorted, every way they disagree: a declaration that is not
// listed, a listed name that is used or gone, and a non-test file that
// imports a package listed as test-only.
func ratchet(pkgs map[string][]*ast.File, unused []string, allowed map[string]bool) []string {
	var problems []string
	testOnly := map[string]bool{} // the package names of the listed import paths
	for name := range allowed {
		if !strings.Contains(name, "/") {
			continue
		}
		if files, ok := pkgs[name]; ok {
			testOnly[files[0].Name.Name] = true
		} else {
			problems = append(problems, fmt.Sprintf("%s is listed in %s, but it has no non-test file: take it off the list", name, unusedAllowlist))
		}
	}
	for path, files := range pkgs {
		for _, f := range files {
			for _, is := range f.Imports {
				if dep := strings.Trim(is.Path.Value, `"`); allowed[dep] {
					problems = append(problems, fmt.Sprintf("%s imports %s, which %s lists as imported only by tests", path, dep, unusedAllowlist))
				}
			}
		}
	}
	listed := map[string]bool{}
	for _, name := range unused {
		if pkg, _, _ := strings.Cut(name, "."); testOnly[pkg] {
			continue
		}
		if !allowed[name] {
			problems = append(problems, fmt.Sprintf("%s is declared, but no non-test file uses it: delete it, or list it in %s with the reason it stays", name, unusedAllowlist))
		}
		listed[name] = true
	}
	for name := range allowed {
		if !strings.Contains(name, "/") && !listed[name] {
			problems = append(problems, fmt.Sprintf("%s is listed in %s, but it is used or gone: take it off the list", name, unusedAllowlist))
		}
	}
	sort.Strings(problems)
	return problems
}

// TestNoUnlistedUnusedExports is the ratchet on declarations nothing uses:
// every exported name, function or method under internal/ that no non-test
// file in internal/, cmd/, examples/ or benchmark/ uses must be on the
// allowlist with a reason, itself or through its package, and every name
// on the allowlist must still be such a declaration or package. One only
// its tests call, directly or through other such declarations, fails here
// until it is deleted or listed.
func TestNoUnlistedUnusedExports(t *testing.T) {
	f, err := os.Open(unusedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed, err := readAllowlist(f)
	if err != nil {
		t.Fatalf("%s: %v", unusedAllowlist, err)
	}
	fset := token.NewFileSet()
	pkgs, err := parseTrees(fset)
	if err != nil {
		t.Fatal(err)
	}
	unused, err := unusedDecls(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ratchet(pkgs, unused, allowed) {
		t.Error(p)
	}
}

// TestUnusedDeclsPlantedCases runs the scan and the ratchet on planted
// sources. Of two types with a Size method only one is called outside
// tests, a method is reached only through an interface, and an unexported
// helper has no caller: the first and last must be reported, the second
// not. Chain, which nothing calls, calls chained, which uses Quiet and
// calls Count through Counter: all five must be reported, since a use
// counts only inside a used declaration. And the allowlist names package
// c as test-only while a command imports it, which the ratchet must
// report.
func TestUnusedDeclsPlantedCases(t *testing.T) {
	sources := map[string]string{
		"repro/internal/a": `package a

type Small struct{}

func (Small) Size() int { return 1 }

type Big struct{}

func (Big) Size() int { return 2 }

type Lener interface{ Len() int }

type List struct{}

func (List) Len() int { return 0 }

func Total(l Lener) int { return l.Len() }

func helper() int { return 3 }

type Counter interface{ Count() int }

type Quiet struct{}

func (Quiet) Count() int { return 4 }

func Chain() int { return chained(Quiet{}) }

func chained(c Counter) int { return c.Count() }
`,
		"repro/internal/c": `package c

func Probe() int { return 5 }
`,
		"repro/cmd/b": `package main

import (
	"repro/internal/a"
	"repro/internal/c"
)

var _ a.Small

func main() { _ = a.Big{}.Size() + a.Total(a.List{}) + c.Probe() }
`,
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for path, src := range sources {
		f, err := parser.ParseFile(fset, path+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[path] = []*ast.File{f}
	}
	unused, err := unusedDecls(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.Chain", "a.Counter", "a.Quiet", "a.Quiet.Count", "a.Small.Size", "a.chained", "a.helper"}
	if !slices.Equal(unused, want) {
		t.Errorf("unused = %q, want %q", unused, want)
	}

	allowed, err := readAllowlist(strings.NewReader("repro/internal/c test-only\n" + strings.Join(want, " planted\n") + " planted\n"))
	if err != nil {
		t.Fatal(err)
	}
	problems := ratchet(pkgs, unused, allowed)
	if len(problems) != 1 || !strings.HasPrefix(problems[0], "repro/cmd/b imports repro/internal/c,") {
		t.Errorf("ratchet = %q, want one problem: repro/cmd/b imports repro/internal/c", problems)
	}
}
