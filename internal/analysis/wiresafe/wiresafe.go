// Package wiresafe enforces the two load-bearing rules of every decode
// path in this repository — the rules the schemeio/netserve fuzzers
// probe dynamically, made structural:
//
//  1. decode-never-panics: functions that consume wire bytes (Read*,
//     Decode*, parse*, open*, finish*, unmarshal* in the decode
//     packages) must return errors, never panic or log.Fatal. A panic
//     reachable from attacker bytes is a remote crash.
//
//  2. cap-before-alloc, compared unsigned: any count or length read
//     from the wire (BitReader.ReadUvarint/ReadBits/ReadGamma/...,
//     binary.Uvarint/ReadUvarint, and the fixed-width
//     binary.ByteOrder Uint16/Uint32/Uint64 reads of the container's
//     sections) must flow through a comparison
//     performed on its unsigned form before it reaches make, slice
//     indexing/slicing, or io sizing (io.CopyN, Discard). Converting
//     to int first and comparing the signed value is exactly the bug
//     PR 5 review caught: a 2^63 uvarint wraps negative, passes every
//     signed bound, and panics inside make.
//
// Scope: repro/internal/coding, repro/internal/schemeio, the wire/frame
// layer of repro/internal/netserve, and every scheme/*/codec.go.
// Fixture packages (import paths containing /testdata/) are fully in
// scope so the analysistest suite can seed violations.
package wiresafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the wiresafe check.
var Analyzer = &framework.Analyzer{
	Name: "wiresafe",
	Doc:  "decode paths must return errors (never panic) and bounds-check wire-read counts in uint64 before sizing allocations",
	Run:  run,
}

// sourceMethods are the bit-reader methods whose results are
// wire-controlled integers. ReadBit is excluded: a single bit cannot
// size anything.
var sourceMethods = map[string]bool{
	"ReadUvarint": true, "ReadBits": true, "ReadGamma": true,
	"ReadUnary": true, "Uvarint": true, "Varint": true,
}

// byteOrderMethods are the fixed-width reads of encoding/binary's byte
// orders, which are wire sources when called on encoding/binary's
// LittleEndian, BigEndian or NativeEndian (or a ByteOrder value).
var byteOrderMethods = map[string]bool{"Uint16": true, "Uint32": true, "Uint64": true}

// decodePrefixes name the functions that consume wire bytes.
var decodePrefixes = []string{"read", "decode", "parse", "open", "finish", "unmarshal"}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if !inScopeFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isDecodeFunc(fn.Name.Name) {
				continue
			}
			checkNoPanic(pass, fn)
			checkGuardedCounts(pass, fn)
		}
	}
	return nil
}

// inScopeFile applies the package/file scope of the analyzer.
func inScopeFile(pass *framework.Pass, f *ast.File) bool {
	path := pass.Path
	if strings.Contains(path, "/testdata/") {
		return true
	}
	switch path {
	case "repro/internal/coding", "repro/internal/schemeio":
		return true
	case "repro/internal/netserve":
		base := filepath.Base(pass.Fset.Position(f.Package).Filename)
		return base == "wire.go" || base == "frame.go"
	}
	if strings.HasPrefix(path, "repro/internal/scheme/") {
		base := filepath.Base(pass.Fset.Position(f.Package).Filename)
		return base == "codec.go"
	}
	return false
}

// isDecodeFunc reports whether name marks a wire-consuming function.
// Constructors (New*) and encoders keep their caller-contract panics;
// the decode rule is for bytes an attacker controls.
func isDecodeFunc(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range decodePrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// checkNoPanic flags panic and log.Fatal*/log.Panic* anywhere in a
// decode function, nested closures included.
func checkNoPanic(pass *framework.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "panic" && isBuiltin(pass, fun) {
				pass.Reportf(call.Pos(), "decode path %s must not panic: return an error (malformed wire bytes are not a program bug)", fn.Name.Name)
			}
		case *ast.SelectorExpr:
			if pkg := packageOf(pass, fun.X); pkg == "log" || pkg == "os" {
				name := fun.Sel.Name
				if strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic") || (pkg == "os" && name == "Exit") {
					pass.Reportf(call.Pos(), "decode path %s must not call %s.%s: return an error", fn.Name.Name, pkg, name)
				}
			}
		}
		return true
	})
}

// event is one change of a variable's taint state, ordered by source
// position (the analysis is a source-order approximation of dominance:
// a guard textually before a sink in the same function counts).
type event struct {
	pos   token.Pos
	clear bool
}

// checkGuardedCounts runs the per-function taint pass: wire-read
// integers must see an unsigned comparison before any sizing sink.
func checkGuardedCounts(pass *framework.Pass, fn *ast.FuncDecl) {
	events := make(map[types.Object][]event)
	add := func(obj types.Object, pos token.Pos, clear bool) {
		if obj != nil {
			events[obj] = append(events[obj], event{pos: pos, clear: clear})
		}
	}
	tainted := func(e ast.Expr, at token.Pos) types.Object {
		obj := identObj(pass, unwrap(e))
		if obj == nil {
			return nil
		}
		evs := events[obj]
		i := sort.Search(len(evs), func(i int) bool { return evs[i].pos >= at })
		if i == 0 {
			return nil
		}
		if evs[i-1].clear {
			return nil
		}
		return obj
	}

	// Pass 1 (source order): record taints, propagations and clears.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				rhs := n.Rhs[0]
				switch {
				case isSourceCall(pass, rhs):
					// v[, err] := r.ReadUvarint() — the first value is the
					// wire-controlled integer.
					add(assignObj(pass, n.Lhs[0]), n.Pos(), false)
					for _, lhs := range n.Lhs[1:] {
						add(taintedReassign(pass, events, lhs), n.Pos(), true)
					}
				case tainted(rhs, n.Pos()) != nil:
					// y := x or y := int(x): the signed copy inherits taint.
					for _, lhs := range n.Lhs {
						add(assignObj(pass, lhs), n.Pos(), false)
					}
				default:
					// Reassignment from a clean value clears old taint.
					for _, lhs := range n.Lhs {
						add(taintedReassign(pass, events, lhs), n.Pos(), true)
					}
				}
			} else {
				for _, lhs := range n.Lhs {
					add(taintedReassign(pass, events, lhs), n.Pos(), true)
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				// A comparison whose operand is unsigned-typed clears every
				// tainted variable inside that operand: `n > max`,
				// `uint64(m) > max`, and arithmetic guards like
				// `cnt-1 > uint64(n)` all count as bounds checks performed
				// in uint64. Signed operands (`int(n) > max`) never clear —
				// that is the wrap bug this analyzer exists to catch.
				for _, side := range []ast.Expr{n.X, n.Y} {
					if !isUnsignedExpr(pass, side) {
						continue
					}
					ast.Inspect(side, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if obj := identObj(pass, id); obj != nil && len(events[obj]) > 0 {
								add(obj, n.Pos(), true)
							}
						}
						return true
					})
				}
			}
		}
		return true
	})
	for _, evs := range events {
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	}

	// Pass 2: flag sinks reached by a tainted, unguarded value.
	report := func(e ast.Expr, sink string) {
		if obj := tainted(e, e.Pos()); obj != nil {
			pass.Reportf(e.Pos(), "wire-read count %q reaches %s without a uint64 bounds comparison (signed-wrap allocation bug class)", obj.Name(), sink)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fun, ok := n.Fun.(*ast.Ident); ok && fun.Name == "make" && isBuiltin(pass, fun) {
				for _, arg := range n.Args[1:] {
					report(arg, "make")
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if name := sel.Sel.Name; name == "CopyN" || name == "Discard" {
					for _, arg := range n.Args {
						report(arg, sel.Sel.Name)
					}
				}
			}
		case *ast.IndexExpr:
			report(n.Index, "slice indexing")
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
				if b != nil {
					report(b, "slicing")
				}
			}
		}
		return true
	})
}

// isSourceCall recognizes a wire-integer producer: a call (possibly
// inside a conversion) to a bit-reader method, a binary varint reader
// or a fixed-width byte-order read.
func isSourceCall(pass *framework.Pass, e ast.Expr) bool {
	e = unwrapParens(e)
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	// Conversion like uint64(r.ReadBits(8)) cannot appear (multi-value),
	// but int(x) over a single-value source can: unwrap one level.
	if isConversion(pass, call) && len(call.Args) == 1 {
		return isSourceCall(pass, call.Args[0])
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if byteOrderMethods[sel.Sel.Name] {
		// binary.LittleEndian.Uint32(b) and friends: a method of the
		// encoding/binary byte orders (or of the ByteOrder interface).
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary"
	}
	if !sourceMethods[sel.Sel.Name] {
		return false
	}
	// binary.Uvarint / binary.Varint / binary.ReadUvarint are package
	// calls; everything else must be a method (any receiver whose method
	// is named like a bit-reader read — name-keyed so fixtures need not
	// import internal/coding).
	if pkg := packageOf(pass, sel.X); pkg != "" {
		return pkg == "binary"
	}
	return strings.HasPrefix(sel.Sel.Name, "Read")
}

// taintedReassign returns lhs's object if it currently carries taint
// events (so a reassignment records a clear), else nil.
func taintedReassign(pass *framework.Pass, events map[types.Object][]event, lhs ast.Expr) types.Object {
	obj := identObj(pass, unwrap(lhs))
	if obj == nil || len(events[obj]) == 0 {
		return nil
	}
	return obj
}

// assignObj resolves the object an assignment target binds.
func assignObj(pass *framework.Pass, lhs ast.Expr) types.Object {
	id, ok := unwrap(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// identObj resolves e to a variable object when e is a plain
// identifier.
func identObj(pass *framework.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	return obj
}

// unwrap strips parens and conversions: int(x), uint64((x)) → x.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.CallExpr:
			if len(t.Args) == 1 {
				if _, ok := t.Args[0].(ast.Expr); ok {
					// Only strip if this is a type conversion shape: a
					// lone argument under an identifier-ish fun. Checked
					// loosely here; isConversion gates the typed case.
					if id, ok := t.Fun.(*ast.Ident); ok && isTypeName(id) {
						e = t.Args[0]
						continue
					}
				}
			}
			return e
		default:
			return e
		}
	}
}

func unwrapParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isTypeName is a syntactic check for conversion-looking calls used by
// unwrap before type information is consulted.
func isTypeName(id *ast.Ident) bool {
	switch id.Name {
	case "int", "int8", "int16", "int32", "int64",
		"uint", "uint8", "uint16", "uint32", "uint64", "uintptr", "byte", "rune":
		return true
	}
	return false
}

// isConversion reports whether call is a type conversion per the type
// checker.
func isConversion(pass *framework.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

// isUnsignedExpr reports whether e's static type is an unsigned
// integer — the "comparison performed in uint64" requirement.
func isUnsignedExpr(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

// isBuiltin reports whether id resolves to the universe-scope builtin
// of the same name (so a local func named panic or make is not
// confused for it).
func isBuiltin(pass *framework.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return true // unresolved: assume builtin
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// packageOf resolves e to an imported package name when e is a package
// qualifier identifier.
func packageOf(pass *framework.Pass, e ast.Expr) string {
	id, ok := unwrapParens(e).(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Name()
	}
	return ""
}
