package rush

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported functions and methods under
// internal/ that no production file calls but that stay, each with the
// test that needs it. A package's own tests can reach unexported code, so
// an export stays only for another package's test or for an interface
// the standard library calls.
var testOnlyAllowed = map[string]string{
	"sim.Engine.Fired":                  "machine's eager oracle (lanes_test.go) counts engine steps with a filesystem change",
	"sim.Event.Cancelled":               "machine's eager oracle (lanes_test.go) checks each running job's completion event is live",
	"simnet.State.NetLoad":              "machine's eager oracle (lanes_test.go) and TestNoiseCyclesAndStops read the raw pod loads",
	"simnet.State.CoreLoad":             "machine's eager oracle (lanes_test.go) reads the raw core-link load",
	"simnet.State.FSLoad":               "machine's eager oracle (lanes_test.go) and TestBackgroundSetReplaces read the raw filesystem load",
	"serve.FeatureVector.MarshalJSON":   "encoding/json calls it; FuzzFrameCodec holds the codec to encoding/json through it",
	"serve.FeatureVector.UnmarshalJSON": "encoding/json calls it; FuzzFrameCodec holds the codec to encoding/json through it",
}

// unsetAllowed names the exported *Config and *Options fields that no
// production file sets but that stay settable, each with why.
var unsetAllowed = map[string]string{
	"core.CollectConfig.Topo":           "the lever for collecting on the machine the gate runs on (full Quartz)",
	"mlkit.AdaBoostConfig.LearningRate": "serialized in the model JSON: a constant would move every saved predictor's bytes",
	"mlkit.AdaBoostConfig.MaxFeatures":  "serialized in the model JSON: a constant would move every saved predictor's bytes",
	"mlkit.ForestConfig.MaxFeatures":    "serialized in the model JSON: a constant would move every saved predictor's bytes",
	"mlkit.ForestConfig.Workers":        "TestForestWorkersBitIdentical fits at several worker counts",
	"mlkit.KNNConfig.Workers":           "TestKNNWorkersIdenticalPredictions predicts at several worker counts",
	"mlkit.RFEConfig.Step":              "the RFE tests eliminate on small problems with a coarser step",
	"mlkit.RFEConfig.MinFeatures":       "the RFE tests stop at a handful of features",
	"mlkit.RFEConfig.Folds":             "the RFE tests pick their fold count",
}

// TestNoTestOnlyAPI fails when a package under internal/ exports a
// function or method that only tests call, or a *Config or *Options
// struct has an exported field that only tests set (or nobody does): an
// export that production never uses is either dead or a test seam, and
// a setting no caller sets is a constant. Production is every non-test
// Go file under internal/, cmd/, examples/ and bench/. Uses are matched
// by name without type checking, so a name used anywhere counts for
// every declaration of it; a same-named wrapper (a Skipped that returns
// its scanner's Skipped) does not count as a use. A default filled in by
// a method of the config itself does not count as a setting.
func TestNoTestOnlyAPI(t *testing.T) {
	refs, sets := productionUses(t)
	var found []string
	seen := map[string]bool{}
	check := func(key string, used bool, allow map[string]string, what string) {
		seen[key] = true
		switch why := allow[key]; {
		case !used && why == "":
			found = append(found, what+": "+key)
		case used && why != "":
			found = append(found, "allowlisted but used in production: "+key)
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		d := parseDecls(t, filepath.Join("internal", e.Name()))
		for key := range d.funcs {
			name := key[strings.LastIndex(key, ".")+1:]
			check(e.Name()+"."+key, refs[name], testOnlyAllowed, "called only by tests")
		}
		for key := range d.fields {
			if typ, field, _ := strings.Cut(key, "."); isConfigType(typ) {
				check(e.Name()+"."+key, sets[field][typ] || sets[field][""], unsetAllowed, "set by no production caller")
			}
		}
	}
	for _, allow := range []map[string]string{testOnlyAllowed, unsetAllowed} {
		for key := range allow {
			if !seen[key] {
				found = append(found, "allowlisted but not declared outside tests: "+key)
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}

// productionUses parses every non-test Go file of the production tree.
// refs holds each identifier those files use, outside declarations and
// outside a function of the same name. sets maps a field name to the
// struct types production composite literals set it in, with "" for a
// field assigned, address-taken or set in a literal of unwritten type.
func productionUses(t *testing.T) (refs map[string]bool, sets map[string]map[string]bool) {
	refs, sets = map[string]bool{}, map[string]map[string]bool{}
	set := func(field, typ string) {
		if sets[field] == nil {
			sets[field] = map[string]bool{}
		}
		sets[field][typ] = true
	}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				// A method of a config type filling its own defaults
				// sets nothing a caller chose.
				fills := fn != nil && fn.Recv != nil && isConfigType(receiverName(fn))
				declared := map[*ast.Ident]bool{}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						declared[n.Name] = true
					case *ast.TypeSpec:
						declared[n.Name] = true
					case *ast.ValueSpec:
						for _, id := range n.Names {
							declared[id] = true
						}
					case *ast.Field:
						for _, id := range n.Names {
							declared[id] = true
						}
					case *ast.CompositeLit:
						typ := ""
						switch lt := n.Type.(type) {
						case *ast.Ident:
							typ = lt.Name
						case *ast.SelectorExpr:
							typ = lt.Sel.Name
						}
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok && n.Type != nil {
									declared[key] = true
									set(key.Name, typ)
								} else if ok {
									set(key.Name, "")
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok && !fills {
								set(sel.Sel.Name, "")
							}
						}
					case *ast.UnaryExpr:
						if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND && !fills {
							set(sel.Sel.Name, "")
						}
					case *ast.Ident:
						if !declared[n] && (fn == nil || n.Name != fn.Name.Name) {
							refs[n.Name] = true
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return refs, sets
}

func isConfigType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}
