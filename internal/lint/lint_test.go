package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Each fixture under testdata/ is a self-contained mini-module annotated
// with `// want `regex`` comments in the analysistest style: a diagnostic
// is expected on every annotated line, matching the regex, and any
// unmatched diagnostic or leftover expectation fails the test.

func TestSimclockGolden(t *testing.T) {
	testFixture(t, "simclock", []*Analyzer{Simclock}, &Config{
		SimclockAllowFuncs: map[string]bool{
			"fixture.RealEnv.Now":   true,
			"fixture.RealEnv.Sleep": true,
		},
		SimclockAllowPackages: map[string]bool{"fixture/allowed": true},
	})
}

func TestWrapcheckGolden(t *testing.T) {
	testFixture(t, "wrapcheck", []*Analyzer{Wrapcheck}, &Config{
		WrapcheckBoundaryPackages: map[string]bool{"fixture/boundary": true},
		FaultsPackage:             "fixture/faults",
	})
}

func TestCtxFirstGolden(t *testing.T) {
	testFixture(t, "ctxfirst", []*Analyzer{CtxFirst}, &Config{
		CtxFirstAllowFields: map[string]bool{"fixture.Carrier": true},
	})
}

func TestTestSleepGolden(t *testing.T) {
	testFixture(t, "testsleep", []*Analyzer{TestSleep}, &Config{})
}

func TestStdlogGolden(t *testing.T) {
	testFixture(t, "stdlog", []*Analyzer{Stdlog}, &Config{
		StdlogScope: []string{"fixture/lib"},
	})
}

func TestLockguardGolden(t *testing.T) {
	testFixture(t, "lockguard", []*Analyzer{Lockguard}, &Config{})
}

func TestLockorderGolden(t *testing.T) {
	testFixture(t, "lockorder", []*Analyzer{Lockorder}, &Config{})
}

func TestNocopyGolden(t *testing.T) {
	testFixture(t, "nocopy", []*Analyzer{Nocopy}, &Config{})
}

func TestHotallocGolden(t *testing.T) {
	testFixture(t, "hotalloc", []*Analyzer{Hotalloc}, &Config{})
}

func TestDeadcodeGolden(t *testing.T) {
	testFixture(t, "deadcode", []*Analyzer{Deadcode}, &Config{
		DeadcodeAllow: map[string]string{
			"fixture/internal/lib.Kept": "fixture: allowlisted by name",
			"fixture/internal/allowed":  "fixture: allowlisted wholesale",
		},
	})
	// Without a package main in the load there are no roots to judge by.
	diags, err := LoadAndRun(filepath.Join("testdata", "deadcode"), []string{"./internal/..."},
		[]*Analyzer{Deadcode}, &Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("rootless load reported %s", d)
	}
}

// Every DeadcodeAllow entry carries a one-line reason of exactly one
// class, and is still needed: without the allowlist, the analyzer reports
// the declaration (or package) it names.
func TestDeadcodeAllowlist(t *testing.T) {
	cfg := DefaultConfig()
	classes := []string{"reference: ", "observer: ", "fixture: ", "pending: "}
	for key, reason := range cfg.DeadcodeAllow {
		n := 0
		for _, c := range classes {
			if strings.HasPrefix(reason, c) {
				n++
			}
		}
		if n != 1 || strings.Contains(reason, "\n") || strings.Contains(reason, "unused") {
			t.Errorf("DeadcodeAllow[%q] = %q: want one line starting with one of %q", key, reason, classes)
		}
	}
	root, pkgs := loadRepo(t)
	bare := *cfg
	bare.DeadcodeAllow = nil
	diags := RunAnalyzers(pkgs, []*Analyzer{Deadcode}, &bare)
	reported := map[string]bool{}
	for _, d := range diags {
		rel, err := filepath.Rel(root, filepath.Dir(d.Pos.Filename))
		if err != nil {
			t.Fatal(err)
		}
		pkg := cfg.ModulePath + "/" + filepath.ToSlash(rel)
		reported[pkg] = true
		reported[pkg+"."+strings.Fields(d.Message)[1]] = true // "<kind> <name> is ..."
	}
	for key := range cfg.DeadcodeAllow {
		if !reported[key] {
			t.Errorf("DeadcodeAllow entry %q is stale: nothing it names is unreachable", key)
		}
	}
}

// TestRepoIsClean is the gate's self-check: the production configuration
// over the whole repository must come back empty, i.e. `go run
// ./cmd/repolint ./...` exits 0.
func TestRepoIsClean(t *testing.T) {
	_, pkgs := loadRepo(t)
	for _, d := range RunAnalyzers(pkgs, All, DefaultConfig()) {
		t.Errorf("%s", d)
	}
}

var repo struct {
	once sync.Once
	root string
	pkgs []*Package
	err  error
}

// loadRepo type-checks the whole repository once for every test that
// runs analyzers over it.
func loadRepo(t *testing.T) (root string, pkgs []*Package) {
	t.Helper()
	repo.once.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			repo.err = err
			return
		}
		repo.root = filepath.Join(wd, "..", "..")
		loader, err := NewLoader(repo.root)
		if err != nil {
			repo.err = err
			return
		}
		repo.pkgs, repo.err = loader.Load()
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.root, repo.pkgs
}

func TestByName(t *testing.T) {
	for _, a := range All {
		got, ok := ByName(a.Name)
		if !ok || got != a {
			t.Fatalf("ByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) should miss")
	}
}

func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{Analyzer: "simclock", Message: "m"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "a.go", 3, 7
	if got, want := d.String(), "a.go:3:7: [simclock] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   string
	}{
		{"no verbs", ""},
		{"%d and %s", "ds"},
		{"100%% of %w", "w"},
		{"%+v %#x %-8s %.2f %q", "vxsfq"},
		{"trailing %", ""},
	}
	for _, c := range cases {
		if got := string(formatVerbs(c.format)); got != c.want {
			t.Errorf("formatVerbs(%q) = %q, want %q", c.format, got, c.want)
		}
	}
}

// testFixture loads the named testdata module, runs the analyzers, and
// compares the diagnostics against the fixture's want annotations.
func testFixture(t *testing.T, name string, analyzers []*Analyzer, cfg *Config) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := LoadAndRun(dir, nil, analyzers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, dir)
	for _, d := range diags {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.Pos.Line)
		if !consumeWant(wants, key, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("missing diagnostic at %s matching %q", key, re)
		}
	}
}

// wantComment extracts the expectation regexes from one source line.
var wantComment = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")

// wantChunk splits the payload into individual backtick-quoted regexes.
var wantChunk = regexp.MustCompile("`([^`]*)`")

// parseWants scans every .go file under dir for want annotations, keyed
// by "relpath:line".
func parseWants(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			m := wantComment.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), i+1)
			for _, chunk := range wantChunk.FindAllStringSubmatch(m[1], -1) {
				re, rerr := regexp.Compile(chunk[1])
				if rerr != nil {
					return fmt.Errorf("%s:%d: bad want regex: %w", rel, i+1, rerr)
				}
				wants[key] = append(wants[key], re)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// consumeWant matches msg against the expectations at key, removing the
// first match.
func consumeWant(wants map[string][]*regexp.Regexp, key, msg string) bool {
	for i, re := range wants[key] {
		if re.MatchString(msg) {
			wants[key] = append(wants[key][:i], wants[key][i+1:]...)
			if len(wants[key]) == 0 {
				delete(wants, key)
			}
			return true
		}
	}
	return false
}

// The campaign scheduler must stay env-clock only: inside simclock's
// scope with no allowlisted escape hatches. A time.Now added to
// internal/sched fails repolint; an allowlist entry added for it fails
// here.
func TestSchedHasNoWallClockExceptions(t *testing.T) {
	c := DefaultConfig()
	if !c.simclockInScope("repro/internal/sched") {
		t.Fatal("repro/internal/sched must be in simclock scope")
	}
	if c.SimclockAllowPackages["repro/internal/sched"] {
		t.Fatal("repro/internal/sched must not be package-allowlisted from simclock")
	}
	for fn := range c.SimclockAllowFuncs {
		if strings.HasPrefix(fn, "repro/internal/sched.") {
			t.Fatalf("simclock allowlist contains sched entry %q; the scheduler is env-clock only", fn)
		}
	}
}
