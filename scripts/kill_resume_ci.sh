#!/bin/bash
# Kill-and-resume smoke test for the checkpoint/resume path, run by CI.
#
# Usage: scripts/kill_resume_ci.sh [BINARY]   (default: fig9)
#
# 1. Run a quick BINARY experiment uninterrupted (the reference).
# 2. Run the same experiment with checkpointing on, watch its JSONL run
#    log, and SIGKILL it once a set number of `epoch` events have landed:
#    the middle epoch of the run that holds the reference's 40% mark.
# 3. Fail unless the kill interrupted that run: the process must still have
#    been running, and the killed log must not hold that run's `run_end`
#    (otherwise the resume below would only fast-forward a finished run).
# 4. Rerun with --resume, which restores the latest checkpoint.
# 5. Diff the per-epoch losses and final metrics of every run in the JSONL
#    run logs: the resumed runs must be bit-identical to the reference.
#
# The kill is keyed to training progress, not wall time, so it lands
# mid-run however fast the machine or the binary is. Timing-only fields
# (train_seconds, span events, run_id) are excluded from the diff;
# everything numeric about the training trajectory is compared exactly, as
# printed.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

NAME=${1:-fig9}
cargo build --release -p rgae-xp --bin "$NAME"

BIN=target/release/$NAME
COMMON=(--quick --seed 5)

echo "== reference run (uninterrupted) =="
"$BIN" "${COMMON[@]}" --out "$WORK/ref" --trace-out "$WORK/ref.jsonl" > /dev/null

# Pick the kill point from the reference log: the run holding the 40%
# epoch mark, the epoch events logged up to that run's middle epoch, and
# the runs that end before it.
read -r KILL_AT RUNS_BEFORE < <(python3 - "$WORK/ref.jsonl" <<'EOF'
import json, sys

runs, open_run = [], None
with open(sys.argv[1]) as fh:
    for line in fh:
        kind = json.loads(line)["type"]
        if kind == "run_start":
            open_run = 0
        elif kind == "epoch":
            assert open_run is not None, "epoch event outside a run"
            open_run += 1
        elif kind == "run_end":
            runs.append(open_run)
            open_run = None
total = sum(runs)
assert total >= 2, f"reference logged only {total} epochs"
mark, before = total * 2 // 5, 0
for r, epochs in enumerate(runs):
    if before + epochs > mark:
        break
    before += epochs
print(before + max(1, epochs // 2), r)
EOF
)
CKPT=(--checkpoint-dir "$WORK/ckpt" --checkpoint-every 3)

echo "== checkpointed run, killed at ${KILL_AT} logged epochs (in run $((RUNS_BEFORE + 1))) =="
"$BIN" "${COMMON[@]}" "${CKPT[@]}" --out "$WORK/int" --trace-out "$WORK/int.jsonl" > /dev/null &
PID=$!
while kill -0 "$PID" 2> /dev/null; do
  landed=$(grep -c '"type":"epoch"' "$WORK/int.jsonl" 2> /dev/null || true)
  if [ "${landed:-0}" -ge "$KILL_AT" ]; then
    kill -KILL "$PID" 2> /dev/null || true
    break
  fi
  sleep 0.005
done
status=0
wait "$PID" || status=$?
if [ "$status" -ne 137 ]; then
  echo "FAIL: the checkpointed run exited with status $status before the kill" >&2
  exit 1
fi
ended=$(grep -c '"type":"run_end"' "$WORK/int.jsonl" || true)
if [ "${ended:-0}" -gt "$RUNS_BEFORE" ]; then
  echo "FAIL: the kill landed after run $((RUNS_BEFORE + 1)) finished" \
    "(${ended} run_end events logged); resume would only fast-forward it" >&2
  exit 1
fi
echo "(killed mid-run after $(grep -c '"type":"epoch"' "$WORK/int.jsonl") logged epochs)"

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
