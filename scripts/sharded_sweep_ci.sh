#!/usr/bin/env bash
# CI drill for the sharded, resumable sweep service: run a small grid
# as 3 shards, kill one mid-run, resume it from its checkpoint, merge
# the shard files, and require the merged report to be byte-identical
# (canonical form) to an unsharded run of the same spec. Then check
# that the top-level flag grid is the same sweep as its equivalent spec
# (a spec run resumes the grid's checkpoint without simulating), and
# that a spec naming an unknown workload is rejected before it runs.
#
# Usage: bash scripts/sharded_sweep_ci.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
echo "sharded-sweep drill in $work"

go build -o "$work/virtuoso" ./cmd/virtuoso
v="$work/virtuoso"

# 6 points (2 workloads x 3 seeds), sized so each point simulates for
# about a second: the kill below lands after shard 1's first point
# completes but while its second is still running.
cat > "$work/spec.json" <<'EOF'
{"workloads": ["JSON", "2D-Sum"], "seeds": [1, 2, 3], "scale": 1.0, "max_app_insts": 8000000}
EOF

# Golden: the unsharded run, canonical form (host times stripped).
"$v" sweep run -spec "$work/spec.json" -canonical -o "$work/golden.json"

# Shards 0 and 2 run to completion.
"$v" sweep run -spec "$work/spec.json" -shard 0/3 -checkpoint "$work/s0.jsonl" -o /dev/null
"$v" sweep run -spec "$work/spec.json" -shard 2/3 -checkpoint "$work/s2.jsonl" -o /dev/null

# Shard 1 is killed mid-run (SIGTERM, what operators and schedulers
# send). The graceful path flushes every completed point to the
# checkpoint before exiting; the in-flight point is discarded.
"$v" sweep run -spec "$work/spec.json" -shard 1/3 -checkpoint "$work/s1.jsonl" -parallel 1 -o /dev/null &
pid=$!
sleep 1.3
if kill -TERM "$pid" 2>/dev/null; then
  echo "killed shard 1 (pid $pid) mid-run"
  wait "$pid" && { echo "ERROR: killed shard exited 0" >&2; exit 1; } || true
else
  # The shard finished before the kill landed; the drill still
  # validates resume (as a no-op) and the merge identity.
  echo "WARN: shard 1 finished before the kill; resume will be a no-op"
  wait "$pid" || true
fi

# Points already durable in shard 1's checkpoint (lines minus header).
pre=$(($(wc -l < "$work/s1.jsonl") - 1))
echo "shard 1 checkpoint holds $pre/2 points after the kill"

# Resume: the same command again. Completed points must restore from
# the checkpoint, only the remainder may simulate (-progress lines
# count exactly the freshly simulated points).
"$v" sweep run -spec "$work/spec.json" -shard 1/3 -checkpoint "$work/s1.jsonl" -progress -o /dev/null 2> "$work/resume.log"
fresh=$(grep -c '^\[' "$work/resume.log" || true)
echo "resume simulated $fresh points"
if [ "$((pre + fresh))" -ne 2 ]; then
  echo "ERROR: checkpointed ($pre) + resumed ($fresh) != 2 — resume re-simulated or lost points" >&2
  cat "$work/resume.log" >&2
  exit 1
fi

# Merge the three shard files and compare against the unsharded golden.
"$v" sweep merge -canonical -o "$work/merged.json" "$work/s0.jsonl" "$work/s1.jsonl" "$work/s2.jsonl"
if ! cmp "$work/merged.json" "$work/golden.json"; then
  echo "ERROR: merged shard report differs from the unsharded run" >&2
  exit 1
fi
echo "OK: kill/resume preserved completed points; merged == unsharded (byte-identical canonical reports)"

# The flag grid is a sweep spec: a checkpoint written by the grid
# resumes under `sweep run -spec` of the equivalent spec with nothing
# left to simulate. The spec sets frag and mode because the flags
# always do (at their defaults).
"$v" -workload JSON,2D-Sum -seeds 1,2 -policy thp -insts 80000 -scale 0.05 \
  -checkpoint "$work/grid.jsonl" -json > /dev/null
cat > "$work/grid_spec.json" <<'EOF'
{"workloads": ["JSON", "2D-Sum"], "designs": ["radix"], "policies": ["thp"], "seeds": [1, 2],
 "scale": 0.05, "max_app_insts": 80000, "frag": 0.8, "mode": "imitation"}
EOF
"$v" sweep run -spec "$work/grid_spec.json" -checkpoint "$work/grid.jsonl" -canonical \
  -o "$work/grid_resumed.json" 2> "$work/grid_resume.log"
if ! grep -q ' 0 simulated$' "$work/grid_resume.log"; then
  echo "ERROR: the spec run did not resume the flag grid's checkpoint in full" >&2
  cat "$work/grid_resume.log" >&2
  exit 1
fi
"$v" sweep run -spec "$work/grid_spec.json" -canonical -o "$work/grid_fresh.json"
if ! cmp "$work/grid_resumed.json" "$work/grid_fresh.json"; then
  echo "ERROR: the resumed flag-grid report differs from a fresh spec run" >&2
  exit 1
fi
echo "OK: flag grid == equivalent spec ($(cat "$work/grid_resume.log"))"

# Workload names are checked when the spec becomes a sweep.
echo '{"workloads": ["RND", "NOPE"], "designs": ["radix", "ech"]}' > "$work/bad_spec.json"
if "$v" sweep hash -spec "$work/bad_spec.json" 2> "$work/bad_spec.log"; then
  echo "ERROR: sweep hash accepted a spec naming an unknown workload" >&2
  exit 1
fi
echo "OK: unknown workload rejected: $(cat "$work/bad_spec.log")"
