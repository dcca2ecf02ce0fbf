package peepul_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// nodeOptions is the whole node configuration surface: one option per
// concern a deployment varies. Every other setting is a constant or
// derives from one of these, so adding a knob means editing this list.
var nodeOptions = []string{
	"WithDebugAddr",
	"WithFsync",
	"WithMeshInterval",
	"WithObservability",
	"WithPeers",
	"WithStorage",
	"WithSyncTimeout",
	"WithTransport",
}

// exportedWith lists the exported With* functions and variables
// declared by the non-test Go files in dir, sorted.
func exportedWith(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(id *ast.Ident) {
		if id.IsExported() && strings.HasPrefix(id.Name, "With") {
			names = append(names, id.Name)
		}
	}
	fset := token.NewFileSet()
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// TestNodeOptionSurface pins the exported node options of peepul and of
// the replica layer underneath it to the same eight.
func TestNodeOptionSurface(t *testing.T) {
	for _, dir := range []string{".", filepath.Join("..", "internal", "replica")} {
		if got := exportedWith(t, dir); !slices.Equal(got, nodeOptions) {
			t.Errorf("%s exports With* %v, want %v", dir, got, nodeOptions)
		}
	}
}
