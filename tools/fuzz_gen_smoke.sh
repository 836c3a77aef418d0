#!/bin/sh
# fuzz_gen smoke (ctest: fuzzgen_smoke). Checks:
#   1. a clean bounded run at a pinned seed finds zero failures (exit 0),
#      and the same seed twice prints byte-identical verdict summaries
#   2. a planted `fuzz-engine-disagree` run exits 1, writes a kind=fuzz
#      repro bundle, auto-minimizes it, quarantines a kind=miscompile
#      bundle, and all three bundles replay standalone (exit 0); --minimize
#      on a copy of the bundle writes the same shrunken input
#   3. a planted `cover-internal:1:1` run exits 1 with exactly one
#      crash:heuristic bundle that replays from a moved copy, and reports
#      the same verdicts with and without --auto-minimize
#   4. corpus mode at one seed twice prints byte-identical summaries, and
#      a corpus file that does not parse stops the run (exit 2)
#   5. planted corpus-mode failures at either stage (`fuzz-parse-internal`,
#      `fuzz-engine-disagree`) land on mutants, not on the unmutated files,
#      and their bundles (and the auto-minimized one) replay from moved
#      copies
#   6. --emit-zoo regenerates the checked-in zoo machines byte for byte
# Usage: fuzz_gen_smoke.sh <fuzz_gen-binary> <scratch-dir> <corpus-dir>
#                          <zoo-dir>
set -eu

FUZZ_GEN=$1
OUT=$2
CORPUS=$3
ZOO=$4
rm -rf "$OUT"
mkdir -p "$OUT"

fail() {
  echo "fuzz_gen_smoke: $*" >&2
  exit 1
}

# Runs fuzz_gen with the remaining arguments, requiring exit status $1;
# the summary line lands in $OUT/summary.txt.
expect_exit() {
  want=$1
  shift
  code=0
  "$FUZZ_GEN" "$@" > "$OUT/last.txt" 2>&1 || code=$?
  if [ "$code" -ne "$want" ]; then
    cat "$OUT/last.txt" >&2
    fail "'$*' exited $code, expected $want"
  fi
  grep '^fuzz_gen: seed ' "$OUT/last.txt" > "$OUT/summary.txt" || true
}

# Runs a clean fuzz_gen twice; the summaries must match byte for byte.
expect_deterministic() {
  expect_exit 0 "$@" --out-dir "$OUT/det1"
  mv "$OUT/summary.txt" "$OUT/det1.txt"
  expect_exit 0 "$@" --out-dir "$OUT/det2"
  cmp "$OUT/det1.txt" "$OUT/summary.txt" || fail "'$*' is not deterministic"
}

# Prints the one top-level bundle under $1 whose signature is $2.
only_bundle() {
  found=$(grep -l "^signature=$2\$" "$1"/*/meta.txt || true)
  [ "$(echo "$found" | grep -c .)" -eq 1 ] || fail "want one $2 bundle: $found"
  dirname "$found"
}

# Replays a copy of bundle $1 after the original is gone.
replay_moved() {
  rm -rf "$OUT/moved"
  cp -R "$1" "$OUT/moved"
  rm -rf "$1"
  "$FUZZ_GEN" --replay "$OUT/moved"
}

# --- 1: clean deterministic run -------------------------------------------
expect_deterministic --seed 42 --iterations 12

# --- 2: planted failure must quarantine, minimize, and replay -------------
expect_exit 1 --seed 5 --iterations 5 --failpoints fuzz-engine-disagree:1:1 \
  --out-dir "$OUT/planted"
original=$(only_bundle "$OUT/planted" miscompile:baseline)
minimized=$(only_bundle "$original/minimized" miscompile:baseline)
"$FUZZ_GEN" --replay "$original"
"$FUZZ_GEN" --replay "$minimized"
"$FUZZ_GEN" --replay "$OUT/planted"/quarantine/*
cp -R "$original" "$OUT/by-hand"
rm -rf "$OUT/by-hand/minimized"
"$FUZZ_GEN" --minimize "$OUT/by-hand" > /dev/null
for file in machine.isdl block.blk; do
  cmp "$minimized/$file" "$OUT/by-hand/minimized/${minimized##*/}/$file" ||
    fail "--minimize and auto-minimize disagree on $file"
done

# --- 3: a failpoint crash replays; minimizing leaves the schedule alone ---
expect_exit 1 --seed 5 --iterations 3 --failpoints cover-internal:1:1 \
  --out-dir "$OUT/crash-plain" --families wide,tiny --auto-minimize false
mv "$OUT/summary.txt" "$OUT/crash-plain.txt"
expect_exit 1 --seed 5 --iterations 3 --failpoints cover-internal:1:1 \
  --out-dir "$OUT/crash" --families wide,tiny
cmp "$OUT/crash-plain.txt" "$OUT/summary.txt" ||
  fail "--auto-minimize changed the verdict schedule"
replay_moved "$(only_bundle "$OUT/crash" crash:heuristic)"

# --- 4: corpus mode is deterministic; every corpus file must parse --------
expect_deterministic --corpus "$CORPUS" --iterations 250 --seed 7
mkdir "$OUT/broken" && echo 'machine {' > "$OUT/broken/broken.isdl"
expect_exit 2 --corpus "$OUT/broken" --iterations 1 --out-dir "$OUT/broken"

# --- 5: planted corpus-mode failures at both stages replay ----------------
# Prints the one bundle with signature $1 under $OUT/corpus, which must be
# a mutant's (corpus-<file>-<iteration>).
mutant_bundle() {
  dir=$(only_bundle "$OUT/corpus" "$1")
  case "${dir##*/}" in
    corpus-*-[0-9]*) echo "$dir" ;;
    *) fail "$1 landed on an unmutated file: $dir" ;;
  esac
}
expect_exit 1 --corpus "$CORPUS" --iterations 250 --seed 20260806 --out-dir \
  "$OUT/corpus" --failpoints fuzz-parse-internal:1:1,fuzz-engine-disagree:1:1
grep -q '(0 failing)' "$OUT/summary.txt" || fail "an unmutated file failed"
replay_moved "$(mutant_bundle crash:parse)"
replay_moved "$(mutant_bundle miscompile:baseline)"
"$FUZZ_GEN" --replay "$OUT/moved"/minimized/*

# --- 6: the zoo regenerates exactly ---------------------------------------
"$FUZZ_GEN" --emit-zoo "$OUT/zoo" > /dev/null
for machine in "$ZOO"/*.isdl; do
  cmp "$machine" "$OUT/zoo/$(basename "$machine")" || fail "zoo drifted"
done

echo "fuzz_gen_smoke: OK"
