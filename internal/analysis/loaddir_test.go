package analysis

import (
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// moduleExports caches one module-wide export map for loadDir (fixture
// loading): every fixture resolves imports against the same `go list
// -export -deps ./...` result.
var moduleExports = struct {
	once sync.Once
	m    map[string]string
	err  error
}{}

// moduleRoot returns the directory containing go.mod for dir.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("analysis: not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// loadDir parses and type-checks the .go files of one directory as a
// package with the given import path, resolving imports against the
// enclosing module. Files named *_test.go load as the package's
// TestFiles, mirroring Load (a fixture uses them to exercise directives
// in test files). Fixture tests use loadDir to analyze testdata
// packages — including ones that pose as scoped packages like
// repro/internal/sim — with full type information.
func loadDir(dir, importPath string) (*Package, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	moduleExports.once.Do(func() {
		moduleExports.m, moduleExports.err = exportMap(root, []string{"./..."})
	})
	if moduleExports.err != nil {
		return nil, moduleExports.err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles, testGoFiles []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			testGoFiles = append(testGoFiles, name)
		} else {
			goFiles = append(goFiles, name)
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	fset := token.NewFileSet()
	return typeCheck(fset, importPath, dir, goFiles, testGoFiles, moduleExports.m)
}
