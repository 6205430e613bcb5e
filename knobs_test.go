package stormtune

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionStructs are the option structs whose every exported field must
// be set by some code outside tests and outside the struct's own
// package. A field only tests set is a knob no caller turns: it belongs
// in the code as the constant its zero value resolves to.
var optionStructs = []typeKey{
	{"stormtune/internal/bo", "Knobs"},
	{"stormtune/internal/bo", "Options"},
	{"stormtune/internal/bo", "TrustRegion"},
	{"stormtune/internal/core", "BOOptions"},
	{"stormtune/internal/core", "RetuneOptions"},
	{"stormtune/internal/core", "RetryPolicy"},
	{"stormtune/internal/watch", "MonitorOptions"},
	{"stormtune/internal/watch", "Plan"},
	{"stormtune", "TunerOptions"},
	{"stormtune", "WatchOptions"},
	{"stormtune", "FleetMember"},
}

// knobExemptions are option fields kept although no code outside tests
// sets them, each with the reason.
var knobExemptions = map[string]string{
	"stormtune.TunerOptions.Parallel": "TunerState records it: testdata/tuner_state_v1.json carries it, so removing it changes the snapshot format",
	"stormtune.WatchOptions.Cluster":  "WatchState records the cluster, and it mirrors TunerOptions.Cluster, which bench sets",
	"stormtune.WatchOptions.Retune":   "WatchState records it, and it forwards watch.Options.Retune, which internal/experiments sets",
}

// TestEveryOptionFieldHasACaller parses the non-test Go files of the
// root module (examples and commands included) and of the bench module.
// A field counts as set where a composite literal of its struct
// (through any alias, and as the element of a slice or map literal)
// keys it, or where an assignment's left side selects it. An
// assignment's receiver is typed from the enclosing function's
// parameters and local declarations and from struct field types; one
// that cannot be typed counts for its field name only if no other
// struct in the parsed code declares that name. A key whose value
// copies a same-named field of another option struct (`Grow: ro.Grow`)
// counts only if that field is itself set.
func TestEveryOptionFieldHasACaller(t *testing.T) {
	u := &universe{
		structs:  map[typeKey]*structDecl{},
		aliases:  map[typeKey]typeKey{},
		declared: map[string][]typeKey{},
	}
	files := parseModule(t, ".", "stormtune", "bench")
	files = append(files, parseModule(t, "bench", "stormbench", "")...)
	for _, gf := range files {
		u.declare(gf)
	}
	checked := map[typeKey]bool{}
	for _, k := range optionStructs {
		if s := u.structs[k]; s == nil || len(s.fields) == 0 {
			t.Fatalf("%s.%s: no struct with exported fields found", k.pkg, k.name)
		}
		checked[k] = true
	}

	set := map[typeKey]map[string]bool{}
	credit := func(k typeKey, name string) {
		if set[k] == nil {
			set[k] = map[string]bool{}
		}
		set[k][name] = true
	}
	type copied struct {
		to   typeKey
		name string
	}
	var copies []copied
	// copiesOption reports whether a field of that name is declared by
	// a checked option struct other than k.
	copiesOption := func(k typeKey, name string) bool {
		for _, d := range u.declared[name] {
			if d != k && checked[d] {
				return true
			}
		}
		return false
	}
	for _, gf := range files {
		var lit func(cl *ast.CompositeLit, typ ast.Expr)
		lit = func(cl *ast.CompositeLit, typ ast.Expr) {
			var elem ast.Expr
			switch tt := typ.(type) {
			case *ast.ArrayType:
				elem = tt.Elt
			case *ast.MapType:
				elem = tt.Value
			}
			if elem != nil {
				for _, e := range cl.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
						e = ue.X
					}
					if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
						lit(inner, unstar(elem))
					}
				}
				return
			}
			k, ok := u.named(typeRef{typ, gf})
			if !ok || !checked[k] || k.pkg == gf.pkg {
				return
			}
			for _, e := range cl.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key := kv.Key.(*ast.Ident).Name
				if sel, ok := kv.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == key && copiesOption(k, key) {
					copies = append(copies, copied{k, key})
					continue
				}
				credit(k, key)
			}
		}
		assigned := func(e ast.Expr, sc scope) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			name := sel.Sel.Name
			owner, ok := typeKey{}, false
			if rt, typed := u.typeOf(sel.X, sc, gf, 0); typed {
				if k, named := u.named(rt); named {
					owner, _, ok = u.field(k, name, 0)
				}
			}
			if !ok && len(u.declared[name]) == 1 {
				owner, ok = u.declared[name][0], true
			}
			if ok && checked[owner] && owner.pkg != gf.pkg {
				credit(owner, name)
			}
		}
		for _, d := range gf.f.Decls {
			sc := scope{}
			if fd, ok := d.(*ast.FuncDecl); ok {
				sc = funcScope(fd)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if n.Type != nil {
						lit(n, n.Type)
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						assigned(e, sc)
					}
				case *ast.IncDecStmt:
					assigned(n.X, sc)
				}
				return true
			})
		}
	}
	// A copy counts once the field it copies is set; repeat until no
	// copy changes, so chains of copies resolve too.
	for changed := true; changed; {
		changed = false
		for _, c := range copies {
			if set[c.to][c.name] {
				continue
			}
			for _, from := range u.declared[c.name] {
				if from != c.to && checked[from] && set[from][c.name] {
					credit(c.to, c.name)
					changed = true
					break
				}
			}
		}
	}

	var missing []string
	for _, k := range optionStructs {
		for _, name := range u.structs[k].fields {
			id := k.pkg + "." + k.name + "." + name
			if _, ok := knobExemptions[id]; !ok && !set[k][name] {
				missing = append(missing, id)
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is set by no code outside tests and its own package: make it a constant", m)
	}
	for id := range knobExemptions {
		k := strings.LastIndex(id, ".")
		if set[typeKeyOf(id[:k])][id[k+1:]] {
			t.Errorf("%s is exempt but now has a caller: drop its exemption", id)
		}
	}
}

// typeKey names a declared type by its package's import path.
type typeKey struct{ pkg, name string }

func typeKeyOf(s string) typeKey {
	i := strings.LastIndex(s, ".")
	return typeKey{s[:i], s[i+1:]}
}

// goFile is one parsed non-test file, its package's import path and
// its imports by local name.
type goFile struct {
	pkg     string
	f       *ast.File
	imports map[string]string
}

// typeRef is a type expression and the file it is written in, which
// its identifiers resolve against.
type typeRef struct {
	expr ast.Expr
	file *goFile
}

// structDecl is one struct type: its exported field names in order and
// every field's type, embedded fields under their type's name.
type structDecl struct {
	fields   []string
	types    map[string]typeRef
	embedded []string
}

// universe is every type declaration of the parsed files.
type universe struct {
	structs  map[typeKey]*structDecl
	aliases  map[typeKey]typeKey  // type A = pkg.B
	declared map[string][]typeKey // exported field name → structs declaring it
}

func (u *universe) declare(gf *goFile) {
	for _, d := range gf.f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, s := range gd.Specs {
			ts := s.(*ast.TypeSpec)
			k := typeKey{gf.pkg, ts.Name.Name}
			if ts.Assign.IsValid() {
				if to, ok := resolveType(ts.Type, gf); ok {
					u.aliases[k] = to
				}
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			sd := &structDecl{types: map[string]typeRef{}}
			for _, f := range st.Fields.List {
				names := f.Names
				if len(names) == 0 {
					id := embeddedName(f.Type)
					if id == nil {
						continue
					}
					names = []*ast.Ident{id}
					sd.embedded = append(sd.embedded, id.Name)
				}
				for _, n := range names {
					sd.types[n.Name] = typeRef{f.Type, gf}
					if n.IsExported() {
						sd.fields = append(sd.fields, n.Name)
						u.declared[n.Name] = append(u.declared[n.Name], k)
					}
				}
			}
			u.structs[k] = sd
		}
	}
}

// named resolves a type reference to the struct (or other named type)
// it denotes, following aliases and pointers.
func (u *universe) named(r typeRef) (typeKey, bool) {
	k, ok := resolveType(r.expr, r.file)
	for i := 0; ok && i < 8; i++ {
		to, isAlias := u.aliases[k]
		if !isAlias {
			break
		}
		k = to
	}
	return k, ok
}

// field finds the struct that declares the field name as seen on
// struct k, directly or promoted through embedded fields, and its type.
func (u *universe) field(k typeKey, name string, depth int) (typeKey, typeRef, bool) {
	sd := u.structs[k]
	if sd == nil || depth > 4 {
		return typeKey{}, typeRef{}, false
	}
	if t, ok := sd.types[name]; ok {
		return k, t, true
	}
	for _, e := range sd.embedded {
		if ek, ok := u.named(sd.types[e]); ok {
			if owner, t, ok := u.field(ek, name, depth+1); ok {
				return owner, t, true
			}
		}
	}
	return typeKey{}, typeRef{}, false
}

// scope holds, for each local name of a function (closures included),
// every declaration that binds it: a type or a value to type. A zero
// binding (a tuple assignment, a range key) is untyped.
type scope map[string][]binding

type binding struct {
	typ ast.Expr // declared type, or nil
	val ast.Expr // initializing value, or nil
	rng ast.Expr // ranged-over expression for a range value variable
}

func funcScope(fd *ast.FuncDecl) scope {
	sc := scope{}
	fields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				sc[n.Name] = append(sc[n.Name], binding{typ: f.Type})
			}
		}
	}
	fields(fd.Recv)
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			fields(n.Params)
			fields(n.Results)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				switch {
				case n.Type != nil:
					sc[name.Name] = append(sc[name.Name], binding{typ: n.Type})
				case len(n.Values) == len(n.Names):
					sc[name.Name] = append(sc[name.Name], binding{val: n.Values[i]})
				default:
					sc[name.Name] = append(sc[name.Name], binding{})
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				break
			}
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				if len(n.Lhs) == len(n.Rhs) {
					sc[id.Name] = append(sc[id.Name], binding{val: n.Rhs[i]})
				} else {
					sc[id.Name] = append(sc[id.Name], binding{})
				}
			}
		case *ast.RangeStmt:
			if n.Tok != token.DEFINE {
				break
			}
			if id, ok := n.Key.(*ast.Ident); ok {
				sc[id.Name] = append(sc[id.Name], binding{})
			}
			if id, ok := n.Value.(*ast.Ident); ok {
				sc[id.Name] = append(sc[id.Name], binding{rng: n.X})
			}
		}
		return true
	})
	return sc
}

// typeOf types an expression syntactically, as far as the function's
// declarations and the struct field types allow. A local name bound
// more than once types only if every binding gives the same type.
func (u *universe) typeOf(e ast.Expr, sc scope, gf *goFile, depth int) (typeRef, bool) {
	if depth > 8 {
		return typeRef{}, false
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return u.typeOf(e.X, sc, gf, depth+1)
	case *ast.StarExpr:
		return u.typeOf(e.X, sc, gf, depth+1)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return u.typeOf(e.X, sc, gf, depth+1)
		}
	case *ast.CompositeLit:
		if e.Type != nil {
			return typeRef{e.Type, gf}, true
		}
	case *ast.Ident:
		bs := sc[e.Name]
		var got typeRef
		for i, b := range bs {
			var r typeRef
			ok := false
			switch {
			case b.typ != nil:
				r, ok = typeRef{b.typ, gf}, true
			case b.val != nil:
				r, ok = u.typeOf(b.val, sc, gf, depth+1)
			case b.rng != nil:
				if rr, rok := u.typeOf(b.rng, sc, gf, depth+1); rok {
					r, ok = elemOf(rr)
				}
			}
			if !ok || i > 0 && (r.file.pkg != got.file.pkg || types.ExprString(r.expr) != types.ExprString(got.expr)) {
				return typeRef{}, false
			}
			got = r
		}
		return got, len(bs) > 0
	case *ast.SelectorExpr:
		if rt, ok := u.typeOf(e.X, sc, gf, depth+1); ok {
			if k, ok := u.named(rt); ok {
				_, ft, ok := u.field(k, e.Sel.Name, 0)
				return ft, ok
			}
		}
	case *ast.IndexExpr:
		if rt, ok := u.typeOf(e.X, sc, gf, depth+1); ok {
			return elemOf(rt)
		}
	}
	return typeRef{}, false
}

// elemOf is the element type of a slice, array or map type reference.
func elemOf(r typeRef) (typeRef, bool) {
	switch t := unstar(r.expr).(type) {
	case *ast.ArrayType:
		return typeRef{t.Elt, r.file}, true
	case *ast.MapType:
		return typeRef{t.Value, r.file}, true
	}
	return typeRef{}, false
}

// parseModule parses every non-test Go file under dir, skipping
// testdata, hidden directories and the subdirectory skip (a nested
// module). mod is the module path dir's files import each other by.
func parseModule(t *testing.T, dir, mod, skip string) []*goFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []*goFile
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != dir && (base == "testdata" || strings.HasPrefix(base, ".") || path == filepath.Join(dir, skip)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := mod
		if rel != "." {
			pkg = mod + "/" + filepath.ToSlash(rel)
		}
		out = append(out, &goFile{pkg: pkg, f: f, imports: importNames(f)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// importNames maps each import's local name in f to its path.
func importNames(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, is := range f.Imports {
		path, err := strconv.Unquote(is.Path.Value)
		if err != nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if is.Name != nil {
			name = is.Name.Name
		}
		m[name] = path
	}
	return m
}

// resolveType names the type a type expression denotes: a bare
// identifier in the file's own package or a qualified one through the
// file's imports.
func resolveType(e ast.Expr, gf *goFile) (typeKey, bool) {
	switch e := unstar(e).(type) {
	case *ast.Ident:
		return typeKey{gf.pkg, e.Name}, true
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && gf.imports[x.Name] != "" {
			return typeKey{gf.imports[x.Name], e.Sel.Name}, true
		}
	}
	return typeKey{}, false
}

// embeddedName is the field name an embedded field's type gives it.
func embeddedName(e ast.Expr) *ast.Ident {
	switch e := unstar(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

func unstar(e ast.Expr) ast.Expr {
	if s, ok := e.(*ast.StarExpr); ok {
		return s.X
	}
	return e
}
