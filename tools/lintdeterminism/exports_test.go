package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported internal/ identifiers that may keep
// no non-test reference, each with its reason: the ROADMAP item that
// adopts it, "reference" for a model tests compare against, or "helper"
// for a helper shared by tests of two or more packages. A key is
// pkg.Name, pkg.Type.Method, or a whole package as internal/pkg. The
// list may only shrink: an entry that no longer names a test-only
// identifier fails the test too.
var testOnlyExports = map[string]string{
	"workload.Random":                 "item 10",
	"iec61508.CatalogFor":             "item 17",
	"memsys.Codec.Columns":            "item 8",
	"memsys.Codec.Decode":             "item 8",
	"mission.Run":                     "item 11",
	"faultsim.Result.Coverage":        "item 1",
	"faultsim.Result.DiagOfDangerous": "item 1",
	"faults.Universe.CollapseRatio":   "item 1",
	"frcpu.StepRef":                   "reference",
	"rtl.Module.MustFinish":           "helper",
	"zones.Analysis.ZoneByName":       "helper",
	"faults.NetBridge":                "helper",
	"internal/sim":                    "reference",
	"internal/injecttest":             "reference",
}

// TestNoTestOnlyExports type-checks every non-test package of the module
// and fails on an exported package-level identifier or method under
// internal/ that no non-test file references, unless it is allowlisted.
// A method also counts as used when its type satisfies an interface that
// non-test code names.
func TestNoTestOnlyExports(t *testing.T) {
	got, err := testOnlyIdentifiers(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, key := range got {
		pkg := "internal/" + key[:strings.IndexByte(key, '.')]
		switch {
		case testOnlyExports[pkg] != "":
			seen[pkg] = true
		case testOnlyExports[key] != "":
			seen[key] = true
		default:
			t.Errorf("%s is exported but only tests use it: delete it, move it to an export_test.go, or allowlist it with a reason", key)
		}
	}
	for key := range testOnlyExports {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no test-only identifier: remove it", key)
		}
	}
}

// testOnlyIdentifiers returns, sorted, the keys of the exported
// identifiers declared under root/internal that no non-test file
// references.
func testOnlyIdentifiers(root string) ([]string, error) {
	l := &moduleLoader{
		fset: token.NewFileSet(),
		root: root,
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l.module = strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		_, err = l.load(filepath.ToSlash(filepath.Join(l.module, rel)))
		return err
	})
	if err != nil {
		return nil, err
	}
	// fmt and errors call these methods through interfaces of their own,
	// so they count as interfaces that non-test code names.
	std, err := parser.ParseFile(l.fset, "std.go", `package std
import "fmt"
var _ = []any{(*error)(nil), (*fmt.Stringer)(nil), (*interface{ Unwrap() error })(nil)}
`, 0)
	if err != nil {
		return nil, err
	}
	if _, err := (&types.Config{Importer: l}).Check("std", l.fset, []*ast.File{std}, l.info); err != nil {
		return nil, err
	}

	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		used[obj] = true
	}
	var ifaces []*types.Interface
	for _, tv := range l.info.Types {
		if tv.Type == nil {
			continue
		}
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}

	implements := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, it := range ifaces {
			if hasMethod(it, m.Name()) && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
		return false
	}

	var out []string
	prefix := l.module + "/internal/"
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		name := strings.TrimPrefix(path, prefix)
		scope := pkg.Scope()
		for _, id := range scope.Names() {
			obj := scope.Lookup(id)
			if obj.Exported() && !used[obj] {
				out = append(out, name+"."+id)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			var methods []*types.Func
			for i := 0; i < named.NumMethods(); i++ {
				methods = append(methods, named.Method(i))
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					methods = append(methods, it.ExplicitMethod(i))
				}
			}
			for _, m := range methods {
				if m.Exported() && !used[m] && !implements(m) {
					out = append(out, name+"."+id+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// moduleLoader type-checks the module's non-test packages from source
// into one shared Info, so an object has one identity across packages;
// the standard library comes from the source importer.
type moduleLoader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*types.Package
	info   *types.Info
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	pkg, err := l.load(path)
	if err == nil && pkg == nil {
		err = os.ErrNotExist
	}
	return pkg, err
}

// load type-checks the package at import path once; a directory with no
// non-test Go files yields nil.
func (l *moduleLoader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
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
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
