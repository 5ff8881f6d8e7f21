package repro_bench

import (
	"bufio"
	"errors"
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
	pathpkg "path"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// exportUsers are the trees whose non-test files count as users of a name
// declared under internal/. The benchmark module compiles against internal/
// too, so what only it uses is used.
var exportUsers = []string{"internal", "cmd", "examples", "benchmark"}

// The allowlists: the declarations under internal/ that no non-test file
// uses, and the struct fields declared there that no non-test file reads,
// one a line with the reason it stays.
const (
	unusedAllowlist = "testdata/unused_exports.txt"
	unreadAllowlist = "testdata/unread_fields.txt"
)

// parseTrees parses every non-test Go file under the user trees of fsys and
// returns them by the import path of their package. A tree fsys lacks is
// skipped.
func parseTrees(fset *token.FileSet, fsys fs.FS) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	for _, root := range exportUsers {
		if _, err := fs.Stat(fsys, root); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		err := fs.WalkDir(fsys, root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return fs.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := fs.ReadFile(fsys, path)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imp := "repro/" + pathpkg.Dir(path)
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

// field is one struct field the ratchet holds to being read.
type field struct {
	name  string        // pkg.Type.field; a struct nested in a declaration adds the names between
	owner *types.Struct // the struct that declares it
}

// unusedDecls type-checks pkgs, every package once in import order, and
// returns, sorted, the declarations under repro/internal/ that nothing in
// pkgs uses: exported top-level names, and functions and methods whether
// exported or not; and the named fields of the structs declared there that
// nothing in pkgs reads. A reference counts only where it sits outside every
// such declaration, or inside one that is itself used, so a chain of
// declarations that call only each other is reported whole; the scan
// repeats until no new declaration becomes used. A top-level name is used
// where an identifier resolves to it, except in a method's receiver: a
// method names its type but does not use it. A method is used where a
// selector resolves to it (to its generic origin, for a method of an
// instantiated type), or where a method of that name is called through an
// interface its receiver type implements. The standard library is not
// scanned, so a String or Error method also counts as used where a value
// of its type can reach an interface parameter, as fmt's arguments do, and
// so does an exported field of such a value. A field is read where a
// selector resolves to it other than as the left side of an assignment or
// the operand of ++ or --: x.n += 1 only feeds x.n, and a composite-literal
// key only writes it. A field with a json tag, and every field of a struct
// compared as a map key, counts as read; an embedded field is not tracked.
func unusedDecls(fset *token.FileSet, pkgs map[string][]*ast.File) (unused, unread []string, err error) {
	order, err := importOrder(pkgs)
	if err != nil {
		return nil, nil, err
	}
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		return nil, nil, err
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
	fields := map[types.Object]field{}
	keyed := map[*types.Struct]bool{} // the structs compared as map keys
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
			return nil, nil, fmt.Errorf("type-check %s: %w", path, err)
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
		if strings.HasPrefix(path, "repro/internal/") {
			for _, f := range pkgs[path] {
				trackFields(info, pkg.Name(), f, fields)
			}
		}
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				markKeyed(m.Key(), keyed)
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

		written := map[*ast.SelectorExpr]bool{} // the selectors assigned to or stepped
		for _, f := range pkgs[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					for _, t := range handedOver(info, n) {
						handovers = append(handovers, handover{t, enclosing(n.Pos())})
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						written[sel] = true
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
			in := enclosing(sel.Sel.Pos())
			if v, ok := s.Obj().(*types.Var); ok {
				if _, ok := fields[v.Origin()]; ok && !written[sel] {
					uses = append(uses, use{v.Origin(), in})
				}
				continue
			}
			fn := s.Obj().(*types.Func)
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
	for v, f := range fields {
		if keyed[f.owner] {
			used[v] = true
		}
	}
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
		for v, f := range fields {
			if v.Exported() && formatted[f.owner] {
				mark(v)
			}
		}
	}

	for obj, d := range decls {
		if !used[obj] {
			unused = append(unused, d.name)
		}
	}
	for v, f := range fields {
		if !used[v] {
			unread = append(unread, f.name)
		}
	}
	sort.Strings(unused)
	sort.Strings(unread)
	return unused, unread, nil
}

// trackFields adds to fields every named field of the structs f declares,
// but for those with a json tag, which encoding/json reads. A field is named
// by the package, the declarations its struct sits in and itself: a.T.n, or
// a.T.inner.n for a struct nested in T's field inner.
func trackFields(info *types.Info, pkg string, f *ast.File, fields map[types.Object]field) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		name := pkg
		for _, outer := range stack {
			switch o := outer.(type) {
			case *ast.FuncDecl:
				if o.Recv != nil {
					name += "." + receiverName(o.Recv.List[0].Type)
				}
				name += "." + o.Name.Name
			case *ast.TypeSpec:
				name += "." + o.Name.Name
			case *ast.ValueSpec:
				name += "." + o.Names[0].Name
			case *ast.Field:
				if len(o.Names) > 0 {
					name += "." + o.Names[0].Name
				}
			}
		}
		owner := info.Types[st].Type.(*types.Struct)
		for _, fl := range st.Fields.List {
			if fl.Tag != nil {
				if _, ok := reflect.StructTag(strings.Trim(fl.Tag.Value, "`")).Lookup("json"); ok {
					continue
				}
			}
			for _, id := range fl.Names {
				if id.Name != "_" {
					fields[info.Defs[id]] = field{name + "." + id.Name, owner}
				}
			}
		}
		return true
	})
}

// markKeyed records in keyed the structs a map key of type t compares: its
// own, and those of its struct fields and array elements.
func markKeyed(t types.Type, keyed map[*types.Struct]bool) {
	if n, ok := t.(*types.Named); ok {
		t = n.Origin()
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		if keyed[u] {
			return
		}
		keyed[u] = true
		for i := 0; i < u.NumFields(); i++ {
			markKeyed(u.Field(i).Type(), keyed)
		}
	case *types.Array:
		markKeyed(u.Elem(), keyed)
	}
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
		formatted[u] = true
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

// ratchet holds the scan's unused declarations and unread fields to their
// allowlists and returns, sorted, every way they disagree: a declaration or
// field that is not listed, a listed name that is used or gone, and a
// non-test file that imports a package listed as test-only. A package line
// in the declarations' list covers the fields of that package too.
func ratchet(pkgs map[string][]*ast.File, unused, unread []string, allowed, allowedFields map[string]bool) []string {
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
	problems = append(problems, unlisted(unused, allowed, testOnly, unusedAllowlist, "is declared, but no non-test file uses it")...)
	problems = append(problems, unlisted(unread, allowedFields, testOnly, unreadAllowlist, "is a field no non-test file reads")...)
	sort.Strings(problems)
	return problems
}

// unlisted returns a problem for each name found outside the test-only
// packages that the allowlist read from file lacks, and for each name the
// allowlist holds that was not found.
func unlisted(found []string, allowed, testOnly map[string]bool, file, what string) []string {
	var problems []string
	seen := map[string]bool{}
	for _, name := range found {
		if pkg, _, _ := strings.Cut(name, "."); testOnly[pkg] {
			continue
		}
		if !allowed[name] {
			problems = append(problems, fmt.Sprintf("%s %s: delete it, or list it in %s with the reason it stays", name, what, file))
		}
		seen[name] = true
	}
	for name := range allowed {
		if !strings.Contains(name, "/") && !seen[name] {
			problems = append(problems, fmt.Sprintf("%s is listed in %s, but it is used or gone: take it off the list", name, file))
		}
	}
	return problems
}

// readAllowlistFile reads the allowlist in file.
func readAllowlistFile(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed, err := readAllowlist(f)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return allowed
}

// TestNoUnlistedUnusedExports is the ratchet on declarations nothing uses
// and fields nothing reads: every exported name, function or method under
// internal/ that no non-test file in internal/, cmd/, examples/ or
// benchmark/ uses, and every struct field declared under internal/ that
// none of them reads, must be on its allowlist with a reason, itself or
// through its package, and every name on an allowlist must still be such a
// declaration, field or package. One only its tests reach, directly or
// through other such declarations, fails here until it is deleted or
// listed.
func TestNoUnlistedUnusedExports(t *testing.T) {
	allowed := readAllowlistFile(t, unusedAllowlist)
	allowedFields := readAllowlistFile(t, unreadAllowlist)
	fset := token.NewFileSet()
	pkgs, err := parseTrees(fset, os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	unused, unread, err := unusedDecls(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ratchet(pkgs, unused, unread, allowed, allowedFields) {
		t.Error(p)
	}
}

// plant parses sources, a file's contents by its path, as parseTrees parses
// the repository.
func plant(t *testing.T, sources map[string]string) (*token.FileSet, map[string][]*ast.File) {
	t.Helper()
	fsys := fstest.MapFS{}
	for path, src := range sources {
		fsys[path] = &fstest.MapFile{Data: []byte(src)}
	}
	fset := token.NewFileSet()
	pkgs, err := parseTrees(fset, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
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
	fset, pkgs := plant(t, map[string]string{
		"internal/a/x.go": `package a

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
		"internal/c/x.go": `package c

func Probe() int { return 5 }
`,
		"cmd/b/main.go": `package main

import (
	"repro/internal/a"
	"repro/internal/c"
)

var _ a.Small

func main() { _ = a.Big{}.Size() + a.Total(a.List{}) + c.Probe() }
`,
	})
	unused, _, err := unusedDecls(fset, pkgs)
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
	problems := ratchet(pkgs, unused, nil, allowed, nil)
	if len(problems) != 1 || !strings.HasPrefix(problems[0], "repro/cmd/b imports repro/internal/c,") {
		t.Errorf("ratchet = %q, want one problem: repro/cmd/b imports repro/internal/c", problems)
	}
}

// TestUnusedFieldsPlantedCases runs the field scan on planted sources.
// Reported: a field only a test file reads, fields non-test code only
// writes (by assignment, ++, += and composite-literal key), one read only
// inside a function nothing calls, and an unexported field of a value
// handed to fmt.
// Not reported: a field read by selection, one whose address is taken, a
// json-tagged field, the fields of a struct used as a map key, and an
// exported field of a value handed to fmt.
func TestUnusedFieldsPlantedCases(t *testing.T) {
	fset, pkgs := plant(t, map[string]string{
		"internal/f/x.go": `package f

import "fmt"

type Rec struct {
	read     int
	testOnly int
	written  int
	keyed    int
	inDead   int
	addr     int
	counted  int
	summed   int
	tagged   int ` + "`json:\"tagged\"`" + `
}

type pair struct{ lo, hi int }

type Shown struct {
	Count int
	note  string
}

func Use() int {
	r := Rec{keyed: 1}
	r.written = 2
	r.counted++
	r.summed += 3
	p := &r.addr
	seen := map[pair]bool{}
	fmt.Println(Shown{})
	return r.read + *p + len(seen)
}

func dead(r Rec) int { return r.inDead }
`,
		"internal/f/x_test.go": `package f

func testOnly(r Rec) int { return r.testOnly }
`,
		"cmd/g/main.go": `package main

import "repro/internal/f"

func main() { _ = f.Use() }
`,
	})
	unused, unread, err := unusedDecls(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"f.dead"}; !slices.Equal(unused, want) {
		t.Errorf("unused = %q, want %q", unused, want)
	}
	want := []string{"f.Rec.counted", "f.Rec.inDead", "f.Rec.keyed", "f.Rec.summed", "f.Rec.testOnly", "f.Rec.written", "f.Shown.note"}
	if !slices.Equal(unread, want) {
		t.Errorf("unread = %q, want %q", unread, want)
	}
	allowedFields := map[string]bool{"f.Rec.counted": true, "f.Rec.inDead": true, "f.Rec.read": true, "f.Rec.summed": true}
	problems := ratchet(pkgs, unused, unread, map[string]bool{"f.dead": true}, allowedFields)
	wantProblems := []string{
		"f.Rec.keyed is a field no non-test file reads: delete it, or list it in " + unreadAllowlist + " with the reason it stays",
		"f.Rec.read is listed in " + unreadAllowlist + ", but it is used or gone: take it off the list",
		"f.Rec.testOnly is a field no non-test file reads: delete it, or list it in " + unreadAllowlist + " with the reason it stays",
		"f.Rec.written is a field no non-test file reads: delete it, or list it in " + unreadAllowlist + " with the reason it stays",
		"f.Shown.note is a field no non-test file reads: delete it, or list it in " + unreadAllowlist + " with the reason it stays",
	}
	if !slices.Equal(problems, wantProblems) {
		t.Errorf("ratchet = %q, want %q", problems, wantProblems)
	}
}
