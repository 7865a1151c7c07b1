package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports names the exported funcs and methods that no non-test
// file references and that stay anyway, each with why.
var testOnlyExports = map[string]string{
	"DecodeSteps":       "the reflection-free step decoder's reference for FuzzDecodeSteps",
	"CheckBounds":       "the legality oracle the program-path tests hold every lowering to",
	"MustApply":         "applies a step the caller knows is legal; the tests' shorthand for building programs",
	"FakeClock":         "the deterministic clock the fleet's lease-expiry tests drive",
	"ByType":            "filters a recorded event stream; the event tests' one reader",
	"Dropped":           "the recorder's dropped-line count, waiting for a reader (ROADMAP item 6)",
	"SetPoison":         "the free list's poisoning hook for the borrowed-memory lifetime tests (ROADMAP item 21)",
	"Drain":             "empties a free list for the lifetime tests (ROADMAP item 21)",
	"Visit":             "walks a free list for the lifetime tests (ROADMAP item 21)",
	"Lent":              "counts a free list's loans for the lifetime tests (ROADMAP item 21)",
	"Check":             "checks a free list's books for the lifetime tests (ROADMAP item 21)",
	"WithTLSConfig":     "the registry client's custom TLS setting (DESIGN.md, the TLS row)",
	"Matmul":            "part of the public tensor-expression DSL",
	"NewComputeBuilder": "part of the public API for building DAGs",
	"Unwrap":            "an error's errors.Unwrap method, called through the interface",
	"MarshalJSON":       "json.Marshaler, called by encoding/json",
	"UnmarshalJSON":     "json.Unmarshaler, called by encoding/json",
}

// TestNoTestOnlyExports fails on an exported func or method whose name
// no non-test .go file (bench/ included) references, unless it is on
// testOnlyExports: code that only tests call belongs in the tests.
// Names are matched as identifiers, so a name shared with any field,
// variable or other method counts as referenced.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string][]string{} // name → where it is declared
	refs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				declared[fn.Name] = true
				decls[fn.Name.Name] = append(decls[fn.Name.Name], fset.Position(fn.Pos()).String())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name, where := range decls {
		if !refs[name] && testOnlyExports[name] == "" {
			unused = append(unused, name+" ("+strings.Join(where, ", ")+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s is referenced only by tests: move it into a _test.go file, or list it in testOnlyExports with a reason", u)
	}
	for name := range testOnlyExports {
		if len(decls[name]) == 0 {
			t.Errorf("testOnlyExports lists %s, which no non-test file declares", name)
		}
	}
}
