#!/bin/bash
# Kill-and-resume smoke test for the checkpoint/resume path, run by CI.
#
# Usage: scripts/kill_resume_ci.sh [BINARY]   (default: fig9)
#
# 1. Run a quick BINARY experiment uninterrupted (the reference).
# 2. Run the same experiment with checkpointing on and SIGKILL it partway.
# 3. Rerun with --resume, which restores the latest checkpoint.
# 4. Diff the per-epoch losses and final metrics of every run in the JSONL
#    run logs: the resumed runs must be bit-identical to the reference.
#
# Timing-only fields (train_seconds, span events, run_id) are excluded from
# the diff; everything numeric about the training trajectory is compared
# exactly, as printed. If the kill happens to land after the run finished,
# --resume fast-forwards from the final checkpoint and replays the full
# event log, so the diff still must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

NAME=${1:-fig9}
cargo build --release -p rgae-xp --bin "$NAME"

BIN=target/release/$NAME
COMMON=(--quick --seed 5)

echo "== reference run (uninterrupted) =="
start=$(date +%s%N)
"$BIN" "${COMMON[@]}" --out "$WORK/ref" --trace-out "$WORK/ref.jsonl" > /dev/null
elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
echo "reference took ${elapsed_ms}ms"

# Kill the checkpointed run at ~40% of the reference wall time so it dies
# mid-training (floor of 1s keeps `timeout` happy on very fast machines).
kill_after_ms=$(( elapsed_ms * 2 / 5 ))
[ "$kill_after_ms" -lt 1000 ] && kill_after_ms=1000
CKPT=(--checkpoint-dir "$WORK/ckpt" --checkpoint-every 3)

kill_after=$(printf '%d.%03ds' $(( kill_after_ms / 1000 )) $(( kill_after_ms % 1000 )))

echo "== checkpointed run, killed after ${kill_after} =="
if timeout -s KILL "$kill_after" \
    "$BIN" "${COMMON[@]}" "${CKPT[@]}" --out "$WORK/int" --trace-out "$WORK/int.jsonl" > /dev/null; then
  echo "(run finished before the kill; resume will fast-forward)"
else
  echo "(killed as intended)"
fi

echo "== resumed run =="
"$BIN" "${COMMON[@]}" "${CKPT[@]}" --resume \
  --out "$WORK/res" --trace-out "$WORK/res.jsonl" > /dev/null

echo "== diffing run logs =="
python3 - "$WORK/ref.jsonl" "$WORK/res.jsonl" <<'EOF'
import json, sys

def trajectory(path):
    epochs, run_ends = [], []
    with open(path) as fh:
        for line in fh:
            ev = json.loads(line)
            if ev["type"] == "epoch":
                # Everything except the type tag is deterministic data.
                epochs.append({k: v for k, v in ev.items() if k != "type"})
            elif ev["type"] == "run_end":
                run_ends.append({k: v for k, v in ev.items()
                                 if k not in ("type", "train_seconds")})
    assert run_ends, f"{path}: no run_end event"
    return epochs, run_ends

ref_epochs, ref_end = trajectory(sys.argv[1])
res_epochs, res_end = trajectory(sys.argv[2])

assert len(ref_epochs) == len(res_epochs), \
    f"epoch count differs: {len(ref_epochs)} vs {len(res_epochs)}"
for i, (a, b) in enumerate(zip(ref_epochs, res_epochs)):
    assert a == b, f"epoch {i} differs:\n  ref: {a}\n  res: {b}"
assert len(ref_end) == len(res_end), \
    f"run count differs: {len(ref_end)} vs {len(res_end)}"
for i, (a, b) in enumerate(zip(ref_end, res_end)):
    assert a == b, f"run_end {i} differs:\n  ref: {a}\n  res: {b}"
last = ref_end[-1]
print(f"OK: {len(ref_end)} runs, {len(ref_epochs)} epochs and final metrics "
      f"are identical (last run: acc={last['final_acc']}, "
      f"nmi={last['final_nmi']}, ari={last['final_ari']})")
EOF

echo "kill-and-resume check passed"
