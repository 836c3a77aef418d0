#!/bin/sh
# fuzz_gen smoke (ctest: fuzzgen_smoke). Three checks:
#   1. a clean bounded run at a pinned seed finds zero failures (exit 0)
#   2. the same seed twice prints byte-identical verdict summaries
#   3. a planted `fuzz-engine-disagree` run exits 1, writes a kind=fuzz
#      repro bundle, auto-minimizes it, quarantines a kind=miscompile
#      bundle, and all three bundles replay standalone (exit 0)
# Usage: fuzz_gen_smoke.sh <fuzz_gen-binary> <scratch-dir>
set -eu

FUZZ_GEN=$1
OUT=$2
rm -rf "$OUT"
mkdir -p "$OUT"

# --- 1+2: clean deterministic run -----------------------------------------
"$FUZZ_GEN" --seed 42 --iterations 12 --out-dir "$OUT/clean1" \
  > "$OUT/sum1.txt"
"$FUZZ_GEN" --seed 42 --iterations 12 --out-dir "$OUT/clean2" \
  > "$OUT/sum2.txt"
cmp "$OUT/sum1.txt" "$OUT/sum2.txt" || {
  echo "fuzz_gen_smoke: summaries differ between identical seeds" >&2
  exit 1
}

# --- 3: planted failure must quarantine, minimize, and replay -------------
code=0
"$FUZZ_GEN" --seed 5 --iterations 5 --failpoints fuzz-engine-disagree:1:1 \
  --out-dir "$OUT/planted" > "$OUT/planted.txt" 2>&1 || code=$?
if [ "$code" -ne 1 ]; then
  echo "fuzz_gen_smoke: planted run exited $code, expected 1" >&2
  cat "$OUT/planted.txt" >&2
  exit 1
fi

minimized=$(find "$OUT/planted" -path '*/minimized/*' -name meta.txt \
  | head -n 1)
if [ -z "$minimized" ]; then
  echo "fuzz_gen_smoke: planted run produced no minimized bundle" >&2
  exit 1
fi
original=$(dirname "$(dirname "$(dirname "$minimized")")")

quarantined=$(find "$OUT/planted/quarantine" -name meta.txt | head -n 1)
if [ -z "$quarantined" ]; then
  echo "fuzz_gen_smoke: planted run quarantined no miscompile bundle" >&2
  exit 1
fi

"$FUZZ_GEN" --replay "$original"
"$FUZZ_GEN" --replay "$(dirname "$minimized")"
"$FUZZ_GEN" --replay "$(dirname "$quarantined")"

echo "fuzz_gen_smoke: OK"
