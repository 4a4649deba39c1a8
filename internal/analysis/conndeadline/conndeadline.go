// Package conndeadline enforces the no-hung-connection invariant of
// internal/netserve: every function that performs I/O on a net.Conn
// must arm a deadline first. A read or write on a conn with no deadline
// blocks forever when the peer stalls, and one stalled peer must never
// pin a server goroutine (the open-loop latency harness of PR 7 counts
// on this).
//
// The rule is source-order dominance within one function: before the
// first conn I/O there must be a SetDeadline / SetReadDeadline /
// SetWriteDeadline call. Conn I/O is a .Read/.Write on a net.Conn-typed
// value or a call to the frame helpers (readFrameInto, writeFrame) with
// a net.Conn in scope; the helpers themselves see only
// bufio.Reader/io.Writer and are exempt.
//
// Functions whose conn arrives already armed (the caller set the
// deadline) opt out with //repolint:deadline-external in their doc
// comment.
package conndeadline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the conndeadline check.
var Analyzer = &framework.Analyzer{
	Name: "conndeadline",
	Doc:  "net.Conn reads/writes must be preceded by a Set{Read,Write,}Deadline in the same function (or the function carries //repolint:deadline-external)",
	Run:  run,
}

// ioHelpers are the frame-layer functions that perform conn I/O one
// level down; calling them counts as touching the conn.
var ioHelpers = map[string]bool{
	"readFrameInto": true, "writeFrame": true,
}

func run(pass *framework.Pass) error {
	if !inScope(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if framework.FuncDirective(fn, "deadline-external") {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// inScope limits the analyzer to the network-serving layer (and the
// analysistest fixtures).
func inScope(path string) bool {
	return path == "repro/internal/netserve" || strings.Contains(path, "/testdata/")
}

func checkFunc(pass *framework.Pass, fn *ast.FuncDecl) {
	if !hasConnValue(pass, fn) {
		return
	}
	var firstIO token.Pos
	var firstIOName string
	var deadlinePos token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if ioHelpers[fun.Name] && (firstIO == token.NoPos || call.Pos() < firstIO) {
				firstIO, firstIOName = call.Pos(), fun.Name
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			switch name {
			case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				if isConnExpr(pass, fun.X) && (deadlinePos == token.NoPos || call.Pos() < deadlinePos) {
					deadlinePos = call.Pos()
				}
			case "Read", "Write":
				if isConnExpr(pass, fun.X) && (firstIO == token.NoPos || call.Pos() < firstIO) {
					firstIO, firstIOName = call.Pos(), "conn."+name
				}
			default:
				if ioHelpers[name] && (firstIO == token.NoPos || call.Pos() < firstIO) {
					firstIO, firstIOName = call.Pos(), name
				}
			}
		}
		return true
	})
	if firstIO == token.NoPos {
		return
	}
	if deadlinePos == token.NoPos {
		pass.Reportf(firstIO, "%s performs conn I/O (%s) with no deadline set in %s: a stalled peer pins this goroutine forever (set one, or mark //repolint:deadline-external)", fn.Name.Name, firstIOName, fn.Name.Name)
		return
	}
	if deadlinePos > firstIO {
		pass.Reportf(firstIO, "%s performs conn I/O (%s) before the deadline is armed at %s", fn.Name.Name, firstIOName, pass.Fset.Position(deadlinePos))
	}
}

// hasConnValue reports whether any parameter, receiver field access, or
// local in fn has type net.Conn (or an interface embedding it, matched
// by name). Frame helpers that only see bufio/io types return false and
// are exempt.
func hasConnValue(pass *framework.Pass, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && isConnType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isConnExpr reports whether e's static type is net.Conn-ish.
func isConnExpr(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && isConnType(tv.Type)
}

// isConnType matches net.Conn itself, named interfaces embedding it
// (e.g. *net.TCPConn), and fixture stand-ins named Conn with the
// deadline trio — the analyzer keys on the interface identity when it
// can, the shape when it cannot.
func isConnType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "net" && (obj.Name() == "Conn" || strings.HasSuffix(obj.Name(), "Conn")) {
			return true
		}
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return hasDeadlineMethods(t)
	}
	need := map[string]bool{"Read": false, "Write": false, "SetReadDeadline": false, "SetWriteDeadline": false}
	for i := 0; i < iface.NumMethods(); i++ {
		if _, tracked := need[iface.Method(i).Name()]; tracked {
			need[iface.Method(i).Name()] = true
		}
	}
	for _, ok := range need {
		if !ok {
			return false
		}
	}
	return true
}

// hasDeadlineMethods duck-types concrete conn implementations (fixture
// fakes, wrapped conns) by their deadline surface.
func hasDeadlineMethods(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	need := map[string]bool{"Read": false, "Write": false, "SetReadDeadline": false, "SetWriteDeadline": false}
	for i := 0; i < named.NumMethods(); i++ {
		if _, tracked := need[named.Method(i).Name()]; tracked {
			need[named.Method(i).Name()] = true
		}
	}
	for _, ok := range need {
		if !ok {
			return false
		}
	}
	return true
}
