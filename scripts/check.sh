#!/bin/sh
# check.sh — the same gate as `make check`, for environments without make:
# formatting, static analysis, build, the race-enabled test suite, every
# example run to its closing line, the benchmark module's own
# vet/tests/smoke run, a fuzz smoke pass over the codec round-trip
# targets, the socket framing under split reads and deadlines, the FFT
# convolution's differential target, the preview and zarr readers under
# hostile bytes, the streaming scan lifecycle, the sim kernel's timers
# against a process-only reference, and per-package coverage
# floors on the layers the tracing work leans on.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== repolint =="
go run ./cmd/repolint ./...

echo "== repolint JSON gate (valid JSONL, zero findings) =="
# The machine-readable mode must emit only parseable JSON lines — and on a
# clean tree, none at all.
jout=$(go run ./cmd/repolint -json ./...)
if [ -n "$jout" ]; then
	echo "repolint -json reported findings on a clean tree:"
	echo "$jout"
	exit 1
fi
echo "repolint -json: clean"

echo "== repolint negative control (seeded fixture must fail) =="
# A gate that cannot fail is no gate: pointing repolint at a deliberately
# broken fixture package must produce findings and exit nonzero.
if go run ./cmd/repolint -checks lockguard ./internal/lint/testdata/lockguard >/dev/null 2>&1; then
	echo "repolint passed the seeded lockguard fixture; the gate is not detecting findings"
	exit 1
fi
echo "repolint correctly rejects the seeded fixture"

echo "== repolint deadcode negative control (seeded fixture must fail) =="
# The deadcode fixture is a mini-module with its own main: run from inside
# it, repolint must report the declarations only its test reaches.
rbin=$(mktemp -d)
go build -o "$rbin/repolint" ./cmd/repolint
if (cd internal/lint/testdata/deadcode && "$rbin/repolint" -checks deadcode ./...) >"$rbin/out" 2>&1 ||
	! grep -q '\[deadcode\] func OnlyTests' "$rbin/out"; then
	echo "repolint did not report the seeded deadcode fixture's test-only declarations"
	cat "$rbin/out"
	rm -rf "$rbin"
	exit 1
fi
rm -rf "$rbin"
echo "repolint correctly rejects the seeded deadcode fixture"

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== streaming example (three scans previewed over real sockets) =="
# The example is a default-configured StreamingService caller; compiling it
# is not enough, it has to preview every scan it publishes.
if ! go run ./examples/streaming | grep -q '^3 scans previewed'; then
	echo "examples/streaming did not preview its three scans"
	exit 1
fi
echo "examples/streaming: 3 scans previewed"

echo "== examples (each exits 0 on its closing line) =="
# E5 (feather), E6 (proppant) and X1 (timeresolved) are reproduced only by
# these programs, and quickstart is the AutoCOR path of the file branch.
# Each exits nonzero when its result check fails; the closing line shows
# it ran to the end.
edir=$(mktemp -d)
for ex in 'quickstart:^ok$' \
	"feather:as in the paper's Figure 1\.$" \
	'proppant:during the tour the paper describes\.$' \
	'timeresolved:^fracture closure signal: '; do
	name=${ex%%:*}
	if ! go run "./examples/$name" >"$edir/out" 2>"$edir/err" ||
		! tail -n 1 "$edir/out" | grep -q "${ex#*:}"; then
		echo "examples/$name failed or did not reach its closing line"
		cat "$edir/out" "$edir/err"
		rm -rf "$edir"
		exit 1
	fi
	echo "examples/$name: $(tail -n 1 "$edir/out")"
done
rm -rf "$edir"

echo "== bench module (vet, tests, smoke run) =="
# bench/ is its own module, so the root vet/test above never compile it.
# Its parity tests and smoke run are the only steps that notice an
# internal/ change breaking the benchmark BENCHMARK.json declares.
go -C bench vet ./...
go -C bench test ./...
# The smoke run exits 0 whatever it measured; its last line is the result
# record, and "correct" is false when any operation's output check failed.
if ! bash bench/run.sh -smoke | tail -n 1 | grep -q '"correct":true'; then
	echo "bench smoke did not end in a correct result record"
	exit 1
fi
echo "bench smoke: every driver ran, outputs correct"

echo "== smoke bench (1 iteration per benchmark) =="
# One untimed pass over the root benchmark suite and every package's own
# benchmarks: catches benchmarks that panic or regress API without paying
# for a measurement run (bench/run.sh does that).
go test -run '^$' -bench . -benchtime 1x -short . ./internal/...

echo "== obslog determinism (two campaign runs, byte-identical journals) =="
# The event journal is stamped purely from the sim clock, so two runs of
# the same seeded campaign must dump byte-identical JSONL timelines.
jdir=$(mktemp -d)
trap 'rm -rf "$jdir"' EXIT
go run ./cmd/flowserver -oneshot -scans 15 -journal "$jdir/a.jsonl" >/dev/null 2>&1
go run ./cmd/flowserver -oneshot -scans 15 -journal "$jdir/b.jsonl" >/dev/null 2>&1
if ! cmp -s "$jdir/a.jsonl" "$jdir/b.jsonl"; then
	echo "journal dumps differ between identical campaign runs"
	exit 1
fi
if ! [ -s "$jdir/a.jsonl" ]; then
	echo "journal dump is empty"
	exit 1
fi
echo "journals identical ($(wc -l <"$jdir/a.jsonl") events)"

echo "== sched determinism (two seeded campaigns, byte-identical decision streams) =="
# The multi-tenant campaign scheduler runs entirely on the sim clock, so
# two seeded campaigns must journal byte-identical timelines — including
# the admission decisions (defer and shed events) the burst provokes.
go run ./cmd/flowserver -oneshot -scans 5 -sched-journal "$jdir/s1.jsonl" >/dev/null 2>&1
go run ./cmd/flowserver -oneshot -scans 5 -sched-journal "$jdir/s2.jsonl" >/dev/null 2>&1
if ! cmp -s "$jdir/s1.jsonl" "$jdir/s2.jsonl"; then
	echo "sched journal dumps differ between identical campaign runs"
	exit 1
fi
if ! grep -q '"run shed"' "$jdir/s1.jsonl" || ! grep -q '"run deferred"' "$jdir/s1.jsonl"; then
	echo "sched journal lacks shed/defer decisions"
	exit 1
fi
echo "sched journals identical ($(wc -l <"$jdir/s1.jsonl") events, incl. shed/defer)"

echo "== telemetry determinism (two seeded runs, byte-identical verdict timelines) =="
# The telemetry plane samples, scores, and probes purely on the sim
# clock, so two seeded brownout replays must dump byte-identical verdict
# timelines ending in the same probe-series digest.
go run ./cmd/flowserver -oneshot -scenario internal/scenario/testdata/facility_brownout.yaml \
	-telemetry-journal "$jdir/t1.jsonl" >/dev/null 2>&1
go run ./cmd/flowserver -oneshot -scenario internal/scenario/testdata/facility_brownout.yaml \
	-telemetry-journal "$jdir/t2.jsonl" >/dev/null 2>&1
if ! cmp -s "$jdir/t1.jsonl" "$jdir/t2.jsonl"; then
	echo "telemetry timelines differ between identical seeded runs"
	exit 1
fi
if ! grep -q '"to":"down"' "$jdir/t1.jsonl" || ! grep -q '"probe_digest"' "$jdir/t1.jsonl"; then
	echo "telemetry timeline lacks the brownout verdict walk or probe digest"
	exit 1
fi
echo "telemetry timelines identical ($(wc -l <"$jdir/t1.jsonl") lines, incl. down verdict + probe digest)"

echo "== scenario goldens (full seed corpus, seeded replay vs golden) =="
# Every spec in the seed corpus must replay deterministically (two fresh
# runs byte-identical), match its recorded golden outcome, and pass its
# own declared expectations.
go run ./cmd/scenario verify

echo "== scenario determinism (same spec twice, byte-identical outcomes) =="
go run ./cmd/scenario run internal/scenario/testdata/sfapi_outage.yaml >"$jdir/o1.json"
go run ./cmd/scenario run internal/scenario/testdata/sfapi_outage.yaml >"$jdir/o2.json"
if ! cmp -s "$jdir/o1.json" "$jdir/o2.json"; then
	echo "scenario outcomes differ between identical runs"
	exit 1
fi
echo "scenario outcomes identical ($(wc -c <"$jdir/o1.json") bytes)"

echo "== scenario flake guard (-count=2) =="
go test -run . -count=2 ./internal/scenario >/dev/null
echo "internal/scenario stable across two consecutive runs"

echo "== fuzz smoke (5s per target) =="
go test -run '^$' -fuzz '^FuzzDXFileRoundTrip$' -fuzztime 5s ./internal/dxfile
go test -run '^$' -fuzz '^FuzzTIFFRoundTrip$' -fuzztime 5s ./internal/tiff
go test -run '^$' -fuzz '^FuzzScenarioSpec$' -fuzztime 5s ./internal/scenario
go test -run '^$' -fuzz '^FuzzEventJSON$' -fuzztime 5s ./internal/obslog
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 5s ./internal/pva
go test -run '^$' -fuzz '^FuzzFraming$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz '^FuzzConvolveBatch$' -fuzztime 5s ./internal/fft
go test -run '^$' -fuzz '^FuzzDecodePreview$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzScanTracker$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzZarrOpen$' -fuzztime 5s ./internal/zarr
go test -run '^$' -fuzz '^FuzzZarrChunk$' -fuzztime 5s ./internal/zarr
go test -run '^$' -fuzz '^FuzzEngineTimers$' -fuzztime 5s ./internal/sim

echo "== coverage floors =="
# floor() fails the gate when a package's statement coverage drops below
# its floor — the regression guard for the instrumented layers.
floor() {
	pkg=$1
	min=$2
	pct=$(go test -cover "$pkg" | awk '{for (i=1;i<=NF;i++) if ($i ~ /%$/) {sub(/%/,"",$i); print $i}}')
	if [ -z "$pct" ]; then
		echo "no coverage reported for $pkg"
		exit 1
	fi
	ok=$(awk -v p="$pct" -v m="$min" 'BEGIN{print (p>=m) ? 1 : 0}')
	if [ "$ok" != 1 ]; then
		echo "coverage for $pkg is ${pct}%, below the ${min}% floor"
		exit 1
	fi
	echo "coverage $pkg: ${pct}% (floor ${min}%)"
}
floor ./internal/trace 90
floor ./internal/faults 90
floor ./internal/flow 85
floor ./internal/lint 90
floor ./internal/leakcheck 85
floor ./internal/obslog 85
floor ./internal/slo 90
floor ./internal/monitor 90
floor ./internal/sched 85
floor ./internal/scenario 85
floor ./internal/telemetry 85

echo "OK"
