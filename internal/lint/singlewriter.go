package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// swField is one field under the single-writer contract.
type swField struct {
	name string
	role string
}

// SingleWriter returns the singlewriter analyzer, the mechanical form of
// the "this state belongs to one goroutine" comments on the repository's
// fast paths: telemetry's Observer buffers, the sharded
// engine's per-shard steering counters, the flat slab's free list. A
// struct field marked //demux:singlewriter(owner=role) — or every field
// of a struct whose type carries the marker — may be accessed only from
// functions marked //demux:owner(role). Everything else is flagged:
//
//   - mutations (assignment, compound assignment, ++/--) from a
//     non-owner, the textbook data race;
//   - reads from a non-owner, which race with owner writes just as
//     surely under the Go memory model;
//   - address escapes (&x.f from a non-owner), which launder the field
//     into code the analyzer cannot see;
//   - value copies of the whole struct outside an owner (x := *l,
//     passing the struct by value), which duplicate single-writer state
//     into a second, unsynchronized home.
//
// Composite literals of the marked struct type are construction, not
// access: a value being built has not been shared yet, so constructors
// need no role. A deliberate cross-role access (a quiesced control-plane
// read, say) is waived with //demux:crossaccess <reason>.
//
// Blind spots, by design of per-package analysis: accesses from other
// packages are invisible (keep single-writer fields unexported), and a
// function literal inherits its enclosing function's roles even if the
// closure is handed to another goroutine.
func SingleWriter() *Analyzer {
	a := &Analyzer{
		Name: "singlewriter",
		Doc:  "restrict //demux:singlewriter fields to //demux:owner functions",
	}
	a.Run = func(pass *Pass) error {
		marked := make(map[token.Pos]swField) // field decl pos → contract
		markedTypes := make(map[token.Pos]string)
		collectSingleWriter(pass, marked, markedTypes)
		if len(marked) == 0 {
			return nil
		}
		roles := ownerRoles(pass)
		reportMissingOwners(pass, marked, roles)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkSingleWriterFunc(pass, fn, marked, markedTypes, roles[fn])
			}
		}
		return nil
	}
	return a
}

// collectSingleWriter gathers field-level and type-level markers. A
// type-level marker places every named field of the struct under the
// type's role; padding fields (_) are skipped.
func collectSingleWriter(pass *Pass, marked map[token.Pos]swField, markedTypes map[token.Pos]string) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typeRole := ""
				if d := typeSpecDirective(gd, ts, "singlewriter"); d != nil {
					typeRole = d.arg("owner")
				}
				sawField := false
				for _, field := range st.Fields.List {
					role := typeRole
					if d := fieldDirective(field, "singlewriter"); d != nil {
						role = d.arg("owner")
					}
					if role == "" {
						continue
					}
					for _, name := range field.Names {
						if name.Name == "_" {
							continue
						}
						if obj := pass.Info.Defs[name]; obj != nil {
							marked[obj.Pos()] = swField{name: obj.Name(), role: role}
							sawField = true
						}
					}
				}
				if sawField {
					if obj := pass.Info.Defs[ts.Name]; obj != nil {
						markedTypes[obj.Pos()] = ts.Name.Name
					}
				}
			}
		}
	}
}

// typeSpecDirective finds a marker on a type declaration: on the
// GenDecl's doc (the usual `// Comment` block above `type T struct`), or
// on the TypeSpec's own doc/trailing comment inside a grouped decl.
func typeSpecDirective(gd *ast.GenDecl, ts *ast.TypeSpec, name string) *directive {
	if len(gd.Specs) == 1 {
		if d := commentGroupDirective(gd.Doc, name); d != nil {
			return d
		}
	}
	if d := commentGroupDirective(ts.Doc, name); d != nil {
		return d
	}
	return commentGroupDirective(ts.Comment, name)
}

// ownerRoles maps each function declaration to the set of roles its
// //demux:owner directives grant.
func ownerRoles(pass *Pass) map[*ast.FuncDecl]map[string]bool {
	out := make(map[*ast.FuncDecl]map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				d, ok := parseDirective(c)
				if !ok || d.name != "owner" || d.err != "" {
					continue
				}
				set := out[fn]
				if set == nil {
					set = make(map[string]bool)
					out[fn] = set
				}
				for _, role := range d.args {
					set[role] = true
				}
			}
		}
	}
	return out
}

// reportMissingOwners flags a marked field whose role no function in the
// package owns — a misspelled role would otherwise forbid the field to
// everyone and flag the real owner, which is noisy but not obviously a
// typo; this diagnostic points at the contract itself.
func reportMissingOwners(pass *Pass, marked map[token.Pos]swField, roles map[*ast.FuncDecl]map[string]bool) {
	have := make(map[string]bool)
	//demux:orderinvariant folding role sets into one set is commutative
	for _, set := range roles {
		//demux:orderinvariant set union is commutative
		for role := range set {
			have[role] = true
		}
	}
	//demux:orderinvariant Run sorts diagnostics by position before emitting
	for pos, fld := range marked {
		if !have[fld.role] {
			pass.Reportf(pos, "field %s is marked //demux:singlewriter(owner=%s) but no function in this package is marked //demux:owner(%s)", fld.name, fld.role, fld.role)
		}
	}
}

// checkSingleWriterFunc walks one function, flagging accesses to marked
// fields outside their role and value copies of marked structs.
func checkSingleWriterFunc(pass *Pass, fn *ast.FuncDecl, marked map[token.Pos]swField, markedTypes map[token.Pos]string, roles map[string]bool) {
	inspectStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			s := pass.Info.Selections[n]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			fld, ok := marked[s.Obj().Pos()]
			if !ok || roles[fld.role] {
				return true
			}
			if !pass.waived(n.Pos(), "crossaccess") {
				pass.Reportf(n.Pos(), "field %s is single-writer state owned by role %q; only //demux:owner(%s) functions may touch it — waive a deliberate cross-role access with //demux:crossaccess <reason>", fld.name, fld.role, fld.role)
			}
		case ast.Expr:
			checkStructCopy(pass, n, stack, markedTypes, roles, marked)
		}
		return true
	})
}

// copyKinds are the expression shapes that can denote an existing struct
// value (a composite literal or call result is a fresh value, not shared
// state, so copying it is fine).
func copyableExpr(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// checkStructCopy flags value copies of a marked struct in a non-owner
// function: RHS of assignment or declaration, call argument, return
// value, or composite-literal element.
func checkStructCopy(pass *Pass, e ast.Expr, stack []ast.Node, markedTypes map[token.Pos]string, roles map[string]bool, marked map[token.Pos]swField) {
	if !copyableExpr(e) || len(stack) < 2 {
		return
	}
	named, ok := pass.Info.TypeOf(e).(*types.Named)
	if !ok {
		return
	}
	typeName, ok := markedTypes[named.Obj().Pos()]
	if !ok {
		return
	}
	if ownerOfAll(named, marked, roles) {
		return
	}
	copied := false
	switch p := stack[len(stack)-2].(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs != e {
				continue
			}
			// _ = x discards the value; no second copy comes to exist.
			if len(p.Lhs) == len(p.Rhs) {
				if id, ok := p.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					continue
				}
			}
			copied = true
		}
	case *ast.ValueSpec:
		for _, v := range p.Values {
			copied = copied || v == e
		}
	case *ast.CallExpr:
		for _, arg := range p.Args {
			copied = copied || arg == e
		}
	case *ast.ReturnStmt:
		for _, r := range p.Results {
			copied = copied || r == e
		}
	case *ast.CompositeLit:
		for _, el := range p.Elts {
			copied = copied || el == e
		}
	case *ast.KeyValueExpr:
		copied = p.Value == e
	}
	if !copied {
		return
	}
	if !pass.waived(e.Pos(), "crossaccess") {
		pass.Reportf(e.Pos(), "copying a %s value duplicates its single-writer fields into a second unsynchronized home; keep it behind a pointer, or waive with //demux:crossaccess <reason>", typeName)
	}
}

// ownerOfAll reports whether the current function's roles cover every
// single-writer field of the struct — an owner may copy its own state.
func ownerOfAll(named *types.Named, marked map[token.Pos]swField, roles map[string]bool) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if fld, ok := marked[st.Field(i).Pos()]; ok && !roles[fld.role] {
			return false
		}
	}
	return true
}
