package tifl

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowed names the test-only exports under internal/ that stay, by name
// or by file, each with the test or product code that needs it. No stale entry.
var testOnlyAllowed = map[string]string{
	"internal/faultnet/faultnet.go":       "the fault-injecting net.Conn of TestChaosReconnectAccuracyBand and TestWorkerFailsOnceOnWhatNoRedialCures",
	"(*flcore.TieredAsyncEngine).Restore": "the sim side of bit-exact resume, the oracle of TestTieredCheckpointResumeBitExact",
	"(*flnet.fatalWorkerError).Unwrap":    "the handshake's errors.As calls it to find the wireVersionError it refuses",
}

// TestNoTestOnlyExports type-checks the non-test files of the module and of
// benchmark/ and fails on each exported name, method or field under internal/
// that they leave unused. A method that satisfies an interface counts as used.
func TestNoTestOnlyExports(t *testing.T) {
	fset, used, decls, stale := token.NewFileSet(), map[token.Position]bool{}, []types.Object{}, maps.Clone(testOnlyAllowed)
	std, ifaces := importer.ForCompiler(fset, "source", nil), map[types.Type]bool{types.Universe.Lookup("error").Type(): true}
	root, _ := filepath.Abs(".")
	dirs, _ := filepath.Glob(filepath.Join(root, "*", "*")) // cmd/*, examples/*, internal/*; files load as empty packages
	for _, dir := range append(dirs, root, filepath.Join(root, "benchmark")) {
		bp, _ := build.Default.ImportDir(dir, 0) // GoFiles: this platform's non-test files
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, _ := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			files = append(files, f)
		}
		path, info := "repro"+strings.TrimPrefix(dir, root), &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		p, err := (&types.Config{Importer: std}).Check(path, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range info.Defs {
			if v, ok := o.(*types.Var); o != nil && o.Exported() && (o.Parent() == nil || o.Parent() == p.Scope()) && !(ok && v.Embedded()) && strings.HasPrefix(path, "repro/internal/") {
				decls = append(decls, o)
			}
		}
		for _, o := range info.Uses { // keyed by position: the importer checks a package apart from this loop
			used[fset.Position(o.Pos())] = true
			if f, ok := o.(*types.Func); ok && f.Signature().Recv() != nil && types.IsInterface(f.Signature().Recv().Type()) {
				ifaces[f.Signature().Recv().Type()] = true // an interface called through, named or not
			}
		}
		for _, q := range append(p.Imports(), p) {
			for _, n := range q.Scope().Names() {
				ifaces[q.Scope().Lookup(n).Type()] = types.IsInterface(q.Scope().Lookup(n).Type())
			}
		}
	}
decls:
	for _, o := range decls {
		name, pos := o.Pkg().Name()+"."+o.Name(), fset.Position(o.Pos())
		if f, ok := o.(*types.Func); ok && f.Signature().Recv() != nil {
			for it, isIface := range ifaces {
				if recv := f.Signature().Recv().Type(); isIface && !types.IsInterface(recv) && types.NewMethodSet(it).Lookup(nil, f.Name()) != nil &&
					(types.AssignableTo(recv, it) || types.AssignableTo(types.NewPointer(recv), it)) {
					continue decls
				}
			}
			name = strings.ReplaceAll(f.FullName(), "repro/internal/", "")
		}
		if file := strings.TrimPrefix(pos.Filename, root+"/"); !used[pos] && testOnlyAllowed[name]+testOnlyAllowed[file] == "" {
			t.Errorf("only tests use %s (%s:%d)", name, file, pos.Line)
		} else if !used[pos] {
			delete(stale, name)
			delete(stale, file)
		}
	}
	for entry := range stale {
		t.Errorf("testOnlyAllowed entry %s covers no test-only export", entry)
	}
}
