package qosres_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported identifiers the audit tolerates, one
// per line: the identifier, then why it stays.
const apiAllowlist = "testdata/api_allowlist.txt"

// TestExportedAPIAudit keeps unreached API out of internal/: every
// exported identifier of an internal package — package-level names and
// methods of its named types — must be used by a non-test file outside
// its own package, and every exported field of a configuration struct
// (an exported struct type named *Options, *Config or *Policy) must be
// written by some non-test file: a knob nothing sets is a constant. The
// callers are every non-test package of the repository: the root
// package, cmd/, examples/, internal/ and the bench/ module. Exempt are
// methods whose name and signature match a method of some interface in
// the loaded packages (they can be reached through it) and packages
// named *test, which exist for tests. A field write counts when it sits
// in another package, or when its value uses a parameter of the
// function it sits in (a constructor passing its caller's choice
// through); a package filling in its own defaults sets nothing. Each
// remaining hit is listed
// in apiAllowlist with a reason; the test fails on a hit that is not
// listed and on a listed entry that is no longer a hit, so the list can
// only shrink.
func TestExportedAPIAudit(t *testing.T) {
	hits, fields, err := auditExportedAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAPIAllowlist(apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if _, ok := allowed[h]; !ok {
			t.Errorf("%s is exported but no non-test file outside its package uses it: unexport or delete it, or list it with a reason in %s", h, apiAllowlist)
		}
		delete(allowed, h)
	}
	for _, h := range fields {
		if _, ok := allowed[h]; !ok {
			t.Errorf("%s is a configuration field that no non-test file sets: make it a constant, or list it with a reason in %s", h, apiAllowlist)
		}
		delete(allowed, h)
	}
	stale := make([]string, 0, len(allowed))
	for id := range allowed {
		stale = append(stale, id)
	}
	sort.Strings(stale)
	for _, id := range stale {
		t.Errorf("%s is listed in %s but has a non-test caller outside its package (or is gone): drop the entry", id, apiAllowlist)
	}
	t.Logf("%d exported identifiers without an outside non-test caller, %d configuration fields without a writer", len(hits), len(fields))
}

// readAPIAllowlist parses the allowlist: blank lines and #-comments are
// skipped; every other line is an identifier followed by its reason.
func readAPIAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, id)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, id)
		}
		out[id] = strings.TrimSpace(reason)
	}
	return out, sc.Err()
}

// apiLoader type-checks the repository's non-test packages from source,
// each once, and the standard library from its export data.
type apiLoader struct {
	fset *token.FileSet
	std  types.Importer
	// dirs maps each repository import path to its directory.
	dirs map[string]string
	pkgs map[string]*types.Package
	// uses records, per object, whether a non-test file of another
	// package refers to it.
	uses map[types.Object]bool
	// set records the struct fields a non-test file sets — as a
	// composite-literal key, on the left of an assignment or an
	// increment, or by taking its address — from another package, or
	// from a parameter of the enclosing function.
	set map[*types.Var]bool
}

// auditExportedAPI returns the audit's hits in the repository rooted at
// root (module qosres, with the bench/ module under it), sorted, each
// as "<package path without qosres/>.<Name>" or ".<Type>.<Method>":
// unreached identifiers, then unwritten configuration fields
// (".<Type>.<Field>").
func auditExportedAPI(root string) (hits, fields []string, err error) {
	l := &apiLoader{
		fset: token.NewFileSet(),
		dirs: make(map[string]string),
		pkgs: make(map[string]*types.Package),
		uses: make(map[types.Object]bool),
		set:  make(map[*types.Var]bool),
	}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dir := filepath.Dir(path)
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			ip := "qosres"
			if rel != "." {
				ip += "/" + filepath.ToSlash(rel)
			}
			l.dirs[ip] = dir
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := l.Import(ip); err != nil {
			return nil, nil, err
		}
	}

	ifaces := l.interfaceMethods()
	for _, ip := range paths {
		pkg := l.pkgs[ip]
		if !strings.HasPrefix(ip, "qosres/internal/") || strings.HasSuffix(pkg.Name(), "test") {
			continue
		}
		short := strings.TrimPrefix(ip, "qosres/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !l.reached(obj) {
				hits = append(hits, short+"."+name)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
				continue
			}
			if st, ok := named.Underlying().(*types.Struct); ok && isConfigName(name) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !l.set[f] {
						fields = append(fields, short+"."+name+"."+f.Name())
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !l.uses[m] && !ifaces.matches(m) {
					hits = append(hits, short+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(hits)
	sort.Strings(fields)
	return hits, fields, nil
}

// isConfigName reports whether a struct type named name is
// configuration, whose fields the audit checks for writers.
func isConfigName(name string) bool {
	for _, suffix := range []string{"Options", "Config", "Policy"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// recordWrites walks a type-checked file for the struct fields it sets.
func (l *apiLoader) recordWrites(pkg *types.Package, info *types.Info, f *ast.File) {
	field := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	for _, decl := range f.Decls {
		params := make(map[types.Object]bool)
		if fd, ok := decl.(*ast.FuncDecl); ok {
			for _, p := range fd.Type.Params.List {
				for _, id := range p.Names {
					params[info.Defs[id]] = true
				}
			}
		}
		// fromParam reports whether an assigned value uses a parameter.
		fromParam := func(e ast.Expr) bool {
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && params[info.Uses[id]] {
					found = true
				}
				return !found
			})
			return found
		}
		write := func(v *types.Var, value ast.Expr) {
			if v != nil && (v.Pkg() != pkg || value != nil && fromParam(value)) {
				l.set[v] = true
			}
		}
		// lhs marks every field selected along an assigned expression:
		// a.B.C = x writes both B and C.
		lhs := func(e, value ast.Expr) {
			for e != nil {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					write(field(x.Sel), value)
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					e = nil
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var st *types.Struct
				if t := info.TypeOf(n); t != nil {
					st, _ = t.Underlying().(*types.Struct)
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							write(field(id), kv.Value)
						}
					} else if st != nil && i < st.NumFields() {
						write(st.Field(i).Origin(), elt)
					}
				}
			case *ast.AssignStmt:
				for i, e := range n.Lhs {
					var value ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						value = n.Rhs[i]
					}
					lhs(e, value)
				}
			case *ast.IncDecStmt:
				lhs(n.X, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lhs(n.X, nil)
				}
			}
			return true
		})
	}
}

// reached reports whether a non-test file outside obj's package uses
// it. A type also counts as used when such a file uses one of its
// methods or fields, or a package-level name of that type or returning
// it: the callers hold its values without spelling its name.
func (l *apiLoader) reached(obj types.Object) bool {
	if l.uses[obj] {
		return true
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	t := tn.Type()
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if l.uses[st.Field(i)] {
				return true
			}
		}
	}
	mset := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < mset.Len(); i++ {
		if l.uses[mset.At(i).Obj()] {
			return true
		}
	}
	is := func(u types.Type) bool {
		if p, ok := u.(*types.Pointer); ok {
			u = p.Elem()
		}
		return types.Identical(u, t)
	}
	scope := tn.Pkg().Scope()
	for _, name := range scope.Names() {
		other := scope.Lookup(name)
		if !l.uses[other] {
			continue
		}
		switch o := other.(type) {
		case *types.Const, *types.Var:
			if is(o.Type()) {
				return true
			}
		case *types.Func:
			res := o.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				if is(res.At(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

// Import type-checks a repository package from source, after its own
// repository imports, and hands every other path to the standard
// library importer. Each package is checked once.
func (l *apiLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		if path == "qosres" || strings.HasPrefix(path, "qosres/") {
			return nil, fmt.Errorf("audit: no non-test Go files for %s", path)
		}
		pkg, err := l.std.Import(path)
		if err == nil {
			l.pkgs[path] = pkg
		}
		return pkg, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("audit: type-check %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	for _, f := range files {
		l.recordWrites(pkg, info, f)
	}
	for _, obj := range info.Uses {
		if obj.Pkg() == nil || obj.Pkg() == pkg {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		l.uses[obj] = true
	}
	return pkg, nil
}

// methodSet indexes interface methods by name.
type methodSet map[string][]*types.Signature

// matches reports whether some interface has a method of m's name and
// signature, so m may be reached through that interface.
func (s methodSet) matches(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	for _, other := range s[m.Name()] {
		if types.Identical(sig, other) {
			return true
		}
	}
	return false
}

// interfaceMethods collects the methods of every named interface
// declared at package level in the loaded packages and everything they
// import.
func (l *apiLoader) interfaceMethods() methodSet {
	out := make(methodSet)
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				out[m.Name()] = append(out[m.Name()], m.Type().(*types.Signature))
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.pkgs {
		walk(pkg)
	}
	return out
}
