package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CFG builder has no public surface of its own; these tests drive it
// the way production does — through lockguard's must-hold dataflow — so
// every assertion is about the property the graph exists to prove: which
// control-flow shapes keep a mutex held at an access site.

// lockguardSrc runs lockguard over one in-memory file in a throwaway
// module and returns the diagnostics.
func lockguardSrc(t *testing.T, src string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := LoadAndRun(dir, nil, []*Analyzer{Lockguard}, &Config{})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

const cfgHeader = `package fixture

import "sync"

type s struct {
	mu sync.Mutex
	n  int // guarded by mu
}

`

func TestCFGLockStateJoins(t *testing.T) {
	cases := []struct {
		name string
		body string // methods on *s appended to cfgHeader
		want int    // expected diagnostic count
	}{
		{"straight line locked", `
func (x *s) f() {
	x.mu.Lock()
	x.n++
	x.mu.Unlock()
}`, 0},
		{"straight line unlocked", `
func (x *s) f() {
	x.n++
}`, 1},
		{"if both branches lock", `
func (x *s) f(b bool) {
	if b {
		x.mu.Lock()
	} else {
		x.mu.Lock()
	}
	x.n++
	x.mu.Unlock()
}`, 0},
		{"if one branch locks", `
func (x *s) f(b bool) {
	if b {
		x.mu.Lock()
	}
	x.n++
}`, 1},
		{"if with init statement", `
func (x *s) f() {
	if b := true; b {
		x.mu.Lock()
		x.n++
		x.mu.Unlock()
	}
}`, 0},
		{"defer unlock holds to exit", `
func (x *s) f() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.n++
	x.n--
}`, 0},
		{"for body holds loop-carried lock", `
func (x *s) f() {
	x.mu.Lock()
	for i := 0; i < 3; i++ {
		x.n += i
	}
	x.mu.Unlock()
}`, 0},
		{"lock inside loop does not cover after", `
func (x *s) f() {
	for i := 0; i < 3; i++ {
		x.mu.Lock()
		x.n += i
		x.mu.Unlock()
	}
	x.n++
}`, 1},
		{"infinite for with break keeps state", `
func (x *s) f() {
	x.mu.Lock()
	for {
		x.n++
		break
	}
	x.mu.Unlock()
}`, 0},
		{"range body and after", `
func (x *s) f(vs []int) {
	x.mu.Lock()
	for _, v := range vs {
		x.n += v
	}
	x.mu.Unlock()
	for range vs {
		x.n++
	}
}`, 1},
		{"switch all cases lock", `
func (x *s) f(k int) {
	switch k {
	case 0:
		x.mu.Lock()
	default:
		x.mu.Lock()
	}
	x.n++
	x.mu.Unlock()
}`, 0},
		{"switch without default may skip", `
func (x *s) f(k int) {
	switch k {
	case 0:
		x.mu.Lock()
	}
	x.n++
}`, 1},
		{"type switch joins", `
func (x *s) f(v interface{}) {
	switch v.(type) {
	case int:
		x.mu.Lock()
	default:
		x.mu.Lock()
	}
	x.n++
	x.mu.Unlock()
}`, 0},
		{"fallthrough carries state but direct entry does not", `
func (x *s) f(k int) {
	switch k {
	case 0:
		x.mu.Lock()
		fallthrough
	case 1:
		x.n++
	default:
	}
}`, 1},
		{"select every clause locks", `
func (x *s) f(a, b chan int) {
	select {
	case <-a:
		x.mu.Lock()
	case <-b:
		x.mu.Lock()
	}
	x.n++
	x.mu.Unlock()
}`, 0},
		{"select with default may skip", `
func (x *s) f(a chan int) {
	select {
	case <-a:
		x.mu.Lock()
	default:
	}
	x.n++
}`, 1},
		{"goto skips the unlock", `
func (x *s) f(b bool) {
	x.mu.Lock()
	if b {
		goto done
	}
	x.mu.Unlock()
done:
	x.n++
}`, 1},
		{"labeled break out of nested loops", `
func (x *s) f(vs []int) {
	x.mu.Lock()
outer:
	for _, v := range vs {
		for i := 0; i < v; i++ {
			x.n++
			break outer
		}
	}
	x.mu.Unlock()
}`, 0},
		{"labeled continue rejoins the loop head", `
func (x *s) f(vs []int) {
outer:
	for _, v := range vs {
		x.mu.Lock()
		if v > 0 {
			x.mu.Unlock()
			continue outer
		}
		x.n++
		x.mu.Unlock()
	}
}`, 0},
		{"panic path does not weaken the join", `
func (x *s) f(b bool) {
	if b {
		panic("boom")
	} else {
		x.mu.Lock()
	}
	x.n++
	x.mu.Unlock()
}`, 0},
		{"return ends the locked path", `
func (x *s) f(b bool) (int, bool) {
	x.mu.Lock()
	if b {
		defer x.mu.Unlock()
		return x.n, true
	}
	x.mu.Unlock()
	return 0, false
}`, 0},
		{"access in dead code is not reported", `
func (x *s) f() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.n
	x.n++
	return 0
}`, 0},
		{"rlock satisfies read not write", `
func (x *s) g() {}
`, 0},
		{"goroutine body starts unlocked", `
func (x *s) f() {
	x.mu.Lock()
	defer x.mu.Unlock()
	go func() {
		x.n++
	}()
}`, 1},
		{"deferred closure inherits creation state", `
func (x *s) f() {
	x.mu.Lock()
	defer x.mu.Unlock()
	defer func() {
		x.n = 0
	}()
	x.n++
}`, 0},
		{"locked suffix without receiver gets no entry state", `
func bumpLocked(x *s) {
	x.n++
}`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := lockguardSrc(t, cfgHeader+strings.TrimLeft(tc.body, "\n"))
			if len(diags) != tc.want {
				var msgs []string
				for _, d := range diags {
					msgs = append(msgs, d.String())
				}
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), tc.want, strings.Join(msgs, "\n"))
			}
		})
	}
}

// An RWMutex guard distinguishes read and write acquisition modes.
func TestCFGRWModes(t *testing.T) {
	src := `package fixture

import "sync"

type r struct {
	mu sync.RWMutex
	n  int // guarded by mu
}

func (x *r) read() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.n
}

func (x *r) writeUnderRLock() {
	x.mu.RLock()
	defer x.mu.RUnlock()
	x.n++
}

func (x *r) mixedJoin(b bool) int {
	if b {
		x.mu.Lock()
		defer x.mu.Unlock()
	} else {
		x.mu.RLock()
		defer x.mu.RUnlock()
	}
	// Exclusive meets shared: reads stay legal, writes do not.
	v := x.n
	x.n = v + 1
	return v
}
`
	diags := lockguardSrc(t, src)
	if len(diags) != 2 {
		var msgs []string
		for _, d := range diags {
			msgs = append(msgs, d.String())
		}
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(diags), strings.Join(msgs, "\n"))
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "writes require Lock") {
			t.Errorf("expected RLock-write diagnostic, got: %s", d)
		}
	}
}

// simClockFixture is the sim clock as it stood when a race test caught
// its unsynchronised read: a copy of the clock, guarded by a mutex, handed
// to readers outside the sim thread. sim.Engine now publishes that copy
// through an atomic, which needs no annotation, so the regression runs on
// this fixture.
const simClockFixture = `package fixture

import (
	"sync"
	"time"
)

type Engine struct {
	clock time.Time
	nowMu sync.Mutex
	now   time.Time // guarded by nowMu
}

func (e *Engine) Now() time.Time {
	e.nowMu.Lock()
	defer e.nowMu.Unlock()
	return e.now
}

func (e *Engine) setNow(t time.Time) {
	e.clock = t
	e.nowMu.Lock()
	e.now = t
	e.nowMu.Unlock()
}
`

// TestSimNowGuardRegression proves the annotation has teeth: the mutex-
// guarded sim clock, with the locking stripped out of Now(), reproduces
// the unsynchronized-clock bug — and lockguard reports it at compile time.
// The locked fixture and the real sim.go stay clean.
func TestSimNowGuardRegression(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(wd, "..", "sim", "sim.go"))
	if err != nil {
		t.Fatal(err)
	}
	if diags := lockguardSrc(t, string(src)); len(diags) != 0 {
		t.Fatalf("pristine sim.go should be clean, got %d diagnostics, first: %s", len(diags), diags[0])
	}
	if diags := lockguardSrc(t, simClockFixture); len(diags) != 0 {
		t.Fatalf("the locked sim clock should be clean, got %d diagnostics, first: %s", len(diags), diags[0])
	}
	locking := "\te.nowMu.Lock()\n\tdefer e.nowMu.Unlock()\n"
	broken := strings.Replace(simClockFixture, locking, "", 1)
	if broken == simClockFixture {
		t.Fatal("the fixture no longer contains the Now() locking sequence")
	}
	diags := lockguardSrc(t, broken)
	if len(diags) == 0 {
		t.Fatal("stripping the sim clock's mutex should reproduce a lockguard diagnostic")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "e.now") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostics do not mention e.now: %v", diags)
	}
}

// TestSelfLint runs the full analyzer set over the lint driver and CLI
// themselves — the analyzers hold to their own invariants.
func TestSelfLint(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(wd, "..", "..")
	diags, err := LoadAndRun(root, []string{"./internal/lint", "./cmd/repolint"}, All, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
