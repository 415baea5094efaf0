package rush

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents TestDocsNameWhatExists holds to the tree.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	makeToken  = regexp.MustCompile(`^make( [a-z][a-z0-9-]*)+$`)
	flagWord   = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(=.*)?$`)
	pathToken  = regexp.MustCompile(`^(\./)?[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)*/?(:[0-9]+(-[0-9]+)?)?$`)
	identToken = regexp.MustCompile(`^(?:internal/)?([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\.\w+)*(?:\(.*\))?$`)
	testToken  = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*)(/.*)?$`)
	listItem   = regexp.MustCompile(`^\s*([-*]|[0-9]+\.)\s`)
	bareIdent  = regexp.MustCompile(`^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*$`)
	packageRow = regexp.MustCompile("^\\| `internal/([a-z]+)` \\|")
	goSelector = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// pkgDecls is what one package directory declares: top-level names, and
// per type its methods and struct fields.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

// TestDocsNameWhatExists extracts every back-quoted token from docFiles
// and fails, naming file and line, when one that looks like a repository
// path does not exist, a `make` target is not in the Makefile, a -flag
// attributed to a rush-* command (in the same token, or the nearest
// command named earlier in the paragraph) is not registered by that
// command, a pkg.Identifier whose pkg is the root package or a directory
// under internal/ is not declared there (nor a bare Identifier in that
// package's row of a package table), or a Test/Benchmark/Fuzz name is
// declared by no _test.go file. Of a fenced block it reads the pkg.Name
// selectors when the block is Go and the command lines otherwise. A token
// that fits none of these shapes is skipped, not guessed at.
func TestDocsNameWhatExists(t *testing.T) {
	targets := makeTargets(t)
	flags := commandFlags(t)
	pkgs := map[string]*pkgDecls{"rush": parseDecls(t, ".")}
	internalDirs := map[string]bool{}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			internalDirs[e.Name()] = true
			pkgs[e.Name()] = parseDecls(t, filepath.Join("internal", e.Name()))
		}
	}
	tests, files := newDecls(), map[string]bool{}
	err = filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || d.Name() == ".git" || d.Name() == ".bench_build" {
			if err == nil {
				err = filepath.SkipDir
			}
			return err
		}
		files[d.Name()] = true
		if strings.HasSuffix(p, "_test.go") {
			tests.addFile(t, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// check returns why tok names nothing, or "". cmd is the rush-*
	// command most recently named in the paragraph.
	check := func(tok string, cmd *string) string {
		words := strings.Fields(tok)
		switch {
		case makeToken.MatchString(tok):
			for _, target := range words[1:] {
				if !targets[target] {
					return "no Makefile target " + target
				}
			}
			return ""
		case strings.ContainsAny(tok, "*{<") || strings.Contains(tok, "..."):
			return ""
		case len(words) > 1 || flagWord.MatchString(tok):
			// A command line, or flags on their own: a flag belongs to
			// the command named before it in the token, a token that
			// starts with a flag continues the paragraph's command.
			cur := ""
			if flagWord.MatchString(words[0]) {
				cur = *cmd
			}
			for _, w := range words {
				if name := filepath.Base(w); flags[name] != nil {
					cur, *cmd = name, name
				} else if w == "|" || w == "&&" || w == ";" {
					cur = ""
				} else if m := flagWord.FindStringSubmatch(w); m != nil && cur != "" && !flags[cur][m[1]] {
					return fmt.Sprintf("%s registers no flag -%s", cur, m[1])
				}
			}
			return ""
		}
		if name := filepath.Base(tok); flags[name] != nil {
			*cmd = name
		}
		if m := testToken.FindStringSubmatch(tok); m != nil {
			if !tests.top[m[1]] {
				return "no _test.go file declares " + m[1]
			}
			return ""
		}
		isFile := strings.HasSuffix(tok, ".go") || strings.HasSuffix(tok, ".md")
		if m := identToken.FindStringSubmatch(tok); m != nil && pkgs[m[1]] != nil && !isFile {
			decls := pkgs[m[1]]
			if !decls.top[m[2]] {
				return fmt.Sprintf("package %s declares no %s", m[1], m[2])
			}
			if m[3] != "" && !decls.members[m[2]][m[3]] {
				return fmt.Sprintf("%s.%s has no method or field %s", m[1], m[2], m[3])
			}
			return ""
		}
		if !pathToken.MatchString(tok) {
			return ""
		}
		p, _, _ := strings.Cut(strings.TrimPrefix(tok, "./"), ":")
		first, _, nested := strings.Cut(strings.TrimSuffix(p, "/"), "/")
		switch info, err := os.Stat(first); {
		case !strings.Contains(p, "/"):
			if isFile && !files[p] {
				return "no file of that name in the repository"
			}
		case err == nil && info.IsDir():
			if _, err := os.Stat(p); err != nil {
				return "no such path"
			}
		case nested && internalDirs[first]:
			if _, err := os.Stat(filepath.Join("internal", p)); err != nil {
				return "no such path under internal/"
			}
		}
		return ""
	}

	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fence, cmd := "", ""
		for i, line := range strings.Split(string(data), "\n") {
			fail := func(tok, why string) {
				if why != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, i+1, tok, why)
				}
			}
			trimmed := strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(trimmed, "```") && fence == "":
				fence = trimmed
			case strings.HasPrefix(trimmed, "```"):
				fence = ""
			case fence == "```go":
				for _, m := range goSelector.FindAllStringSubmatch(line, -1) {
					if pkgs[m[1]] != nil && !pkgs[m[1]].top[m[2]] {
						fail(m[1]+"."+m[2], fmt.Sprintf("package %s declares no %s", m[1], m[2]))
					}
				}
			case fence != "":
				command, _, _ := strings.Cut(trimmed, " #")
				if command = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(command), "\\")); len(strings.Fields(command)) > 1 {
					fail(command, check(command, &cmd))
				}
			default:
				if trimmed == "" || listItem.MatchString(line) || strings.HasPrefix(line, "#") {
					cmd = "" // a new paragraph inherits no command
				}
				row := packageRow.FindStringSubmatch(line)
				for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
					tok := strings.TrimSpace(m[1])
					if row != nil && bareIdent.MatchString(tok) {
						if decls := pkgs[row[1]]; decls != nil && !decls.top[tok] && !decls.anyMember(tok) {
							fail(tok, fmt.Sprintf("package %s declares no %s", row[1], tok))
						}
						continue
					}
					fail(tok, check(tok, &cmd))
				}
			}
		}
	}
}

// makeTargets returns the rule names of the Makefile.
func makeTargets(t *testing.T) map[string]bool {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	return targets
}

// commandFlags maps each command under cmd/ to the flags it registers:
// the flag.X("name", ...) calls in its main.go plus those of every
// internal/cliflags helper main.go calls.
func commandFlags(t *testing.T) map[string]map[string]bool {
	registered := func(n ast.Node, into map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && fmt.Sprint(sel.X) == "flag" {
				for _, arg := range call.Args[:min(2, len(call.Args))] {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						into[name] = true
						break
					}
				}
			}
			return true
		})
	}
	fset := token.NewFileSet()
	helpers := map[string]map[string]bool{}
	f, err := parser.ParseFile(fset, "internal/cliflags/cliflags.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			helpers[fn.Name.Name] = map[string]bool{}
			registered(fn, helpers[fn.Name.Name])
		}
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	out := map[string]map[string]bool{}
	for _, p := range mains {
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		registered(f, set)
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && fmt.Sprint(sel.X) == "cliflags" {
				for name := range helpers[sel.Sel.Name] {
					set[name] = true
				}
			}
			return true
		})
		out[filepath.Base(filepath.Dir(p))] = set
	}
	return out
}

func newDecls() *pkgDecls {
	return &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
}

// parseDecls lists what the Go files of dir declare, tests included.
func parseDecls(t *testing.T, dir string) *pkgDecls {
	d := newDecls()
	paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, p := range paths {
		d.addFile(t, p)
	}
	return d
}

// anyMember reports whether some type of the package has a method or
// field called name.
func (d *pkgDecls) anyMember(name string) bool {
	for _, ms := range d.members {
		if ms[name] {
			return true
		}
	}
	return false
}

func (d *pkgDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
}

// addFile adds one file's declarations, parsed without type checking.
func (d *pkgDecls) addFile(t *testing.T, path string) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := func(typ string, list *ast.FieldList) {
		for _, field := range list.List {
			for _, name := range field.Names {
				d.member(typ, name.Name)
			}
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.top[decl.Name.Name] = true
				continue
			}
			recv := decl.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			d.member(fmt.Sprint(recv), decl.Name.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					d.top[spec.Name.Name] = true
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						fields(spec.Name.Name, typ.Fields)
					case *ast.InterfaceType:
						fields(spec.Name.Name, typ.Methods)
					}
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						d.top[name.Name] = true
					}
				}
			}
		}
	}
}
