// Command ctxcheck enforces the public-API context rule: every exported
// function or method of the root propeller package that can fail (returns
// an error) must take a context.Context as its first parameter, so
// deadlines and cancellation reach every RPC on the request path.
//
// Exemptions:
//   - io.Closer-style Close methods and error-getter Err methods
//   - unexported identifiers and methods on unexported types
//
// Usage (from the repository root, wired into CI):
//
//	go run ./tools/ctxcheck [package-dir]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

// exemptNames are established interface shapes that cannot carry a context.
var exemptNames = map[string]bool{
	"Close": true, // io.Closer
	"Err":   true, // error getter (iterator convention)
}

func main() {
	dir := "."
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	violations, err := check(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctxcheck:", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "ctxcheck:", v)
		}
		fmt.Fprintf(os.Stderr, "ctxcheck: %d public API function(s) missing a context.Context first parameter\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("ctxcheck: public API is context-first")
}

func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") || pkg.Name == "main" {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if v := checkFunc(fset, fn); v != "" {
					violations = append(violations, v)
				}
			}
		}
	}
	return violations, nil
}

func checkFunc(fset *token.FileSet, fn *ast.FuncDecl) string {
	if !fn.Name.IsExported() || exemptNames[fn.Name.Name] {
		return ""
	}
	// Methods on unexported receivers are not public API.
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		if name := receiverTypeName(fn.Recv.List[0].Type); name != "" && !ast.IsExported(name) {
			return ""
		}
	}
	if !returnsError(fn) {
		return ""
	}
	if firstParamIsContext(fn) {
		return ""
	}
	return fmt.Sprintf("%s: %s returns an error but does not take context.Context first",
		fset.Position(fn.Pos()), fn.Name.Name)
}

func receiverTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverTypeName(t.X)
	case *ast.IndexExpr:
		return receiverTypeName(t.X)
	}
	return ""
}

func returnsError(fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, r := range fn.Type.Results.List {
		if id, ok := r.Type.(*ast.Ident); ok && id.Name == "error" {
			return true
		}
	}
	return false
}

func firstParamIsContext(fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil || len(fn.Type.Params.List) == 0 {
		return false
	}
	sel, ok := fn.Type.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}
