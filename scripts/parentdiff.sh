#!/usr/bin/env bash
# parentdiff.sh — check that the working tree reproduces a revision bit for
# bit on a fixed list of deterministic commands.
#
# It builds the tools of `git archive <rev>` and of the working tree into
# temporary directories, offline. Each build then runs the list below in a
# scratch directory of its own. The script masks wall-clock timings and the
# scratch paths, then compares stdout, stderr and exit status command by
# command, and the files the commands write byte for byte. Differences are
# printed, at most 20 lines per stream, and the script exits 1. A run with
# no difference prints nothing and exits 0.
#
# `bash scripts/parentdiff.sh HEAD` on a clean tree must print nothing: that
# proves the masks cover every timing. Against the parent of a change it
# shows exactly what the change does to these outputs.
#
# Usage: bash scripts/parentdiff.sh <rev>
set -euo pipefail

rev="${1:?usage: scripts/parentdiff.sh <rev>}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export GOPROXY=off GOTOOLCHAIN=local LC_ALL=C

# The bit-identity list: tool and arguments, run in the side's scratch
# directory (all seed 1 unless stated).
cmds=(
  "clearfuzz -runs 200 -seed 1"
  "clearfuzz -inject bug -runs 50 -seed 1"
  "clearfuzz -inject storm -runs 100 -seed 1"
  "clearlitmus run -q"
  "clearlitmus run -q -faults default -seeds 8"
  "clearchaos -runs 32 -seed 1"
  "clearchaos -plan planted -configs CW -runs 20 -seed 1"
  "clearbench -quick -csv quick.csv"
  "clearbench -quick -sweep"
  # Analyze's per-AR indirection flags (Table 1), and config M runs, whose
  # static footprints come from isa.EvalFootprint.
  "clearinspect -bench sorted-list"
  "clearinspect -bench bitcoin"
  "clearsim -bench arrayswap -config M -cores 16 -ops 40"
  "clearsim -bench hashmap -config M -cores 16 -ops 40"
  "cleartrace record -mem -bench labyrinth -config B -cores 16 -ops 16 -seed 2 -o labyrinth.trace"
  "cleartrace record -mem -bench bayes -config W -cores 32 -ops 8 -seed 1 -o bayes.trace"
  "cleartrace summary labyrinth.trace"
  "cleartrace profile -json labyrinth.trace"
  "cleartrace timeline labyrinth.trace"
  "cleartrace metrics -interval 5000 labyrinth.trace"
  "cleartrace export -format perfetto -interval 10000 -o labyrinth.json labyrinth.trace"
  "cleartrace export -format csv -o labyrinth.csv labyrinth.trace"
  "cleartrace verify labyrinth.trace"
  "cleartrace summary bayes.trace"
  "cleartrace profile -json bayes.trace"
  "cleartrace timeline bayes.trace"
  "cleartrace metrics -interval 5000 bayes.trace"
  "cleartrace export -format perfetto -interval 10000 -o bayes.json bayes.trace"
  "cleartrace export -format csv -o bayes.csv bayes.trace"
  "cleartrace verify bayes.trace"
)
# Files the list writes, compared byte for byte.
files=(quick.csv labyrinth.trace bayes.trace labyrinth.json labyrinth.csv bayes.json bayes.csv)

mkdir -p "$tmp/src" "$tmp/rev/bin" "$tmp/rev/work" "$tmp/tree/bin" "$tmp/tree/work"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/rev/bin/" ./cmd/...)
(cd "$root" && go build -o "$tmp/tree/bin/" ./cmd/...)

# mask replaces Go durations (350ms, 1.2s, 2m3.5s) and the side's scratch
# path with fixed tokens.
mask() {
  sed -E -e 's/\b[0-9][0-9.hm]*(ns|µs|us|ms|s)\b/<T>/g' -e "s#$tmp/$1#<dir>#g" "$2"
}

for side in rev tree; do
  i=0
  for c in "${cmds[@]}"; do
    read -r tool args <<<"$c"
    rc=0
    # shellcheck disable=SC2086 # args is a word list
    (cd "$tmp/$side/work" && "$tmp/$side/bin/$tool" $args) \
      >"$tmp/$side/$i.stdout" 2>"$tmp/$side/$i.stderr" || rc=$?
    echo "exit $rc" >"$tmp/$side/$i.exit"
    for s in stdout stderr; do
      mask "$side" "$tmp/$side/$i.$s" >"$tmp/$side/$i.$s.masked"
    done
    i=$((i + 1))
  done
done

differ=0
i=0
for c in "${cmds[@]}"; do
  for s in exit stdout.masked stderr.masked; do
    if ! cmp -s "$tmp/rev/$i.$s" "$tmp/tree/$i.$s"; then
      differ=1
      echo "== $c: ${s%.masked} differs ($rev vs working tree)"
      diff "$tmp/rev/$i.$s" "$tmp/tree/$i.$s" | head -n 20 || true
    fi
  done
  i=$((i + 1))
done
for f in "${files[@]}"; do
  if ! cmp -s "$tmp/rev/work/$f" "$tmp/tree/work/$f"; then
    differ=1
    echo "== $f differs ($rev vs working tree)"
  fi
done
exit "$differ"
