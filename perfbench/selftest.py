"""Self-test of the benchmark: wrong verdicts are counted, counts repeat.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py

or under pytest: ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# questions whose flipped verdict every oracle must reject
FLIPS = {
    "gamma": lambda p: {**p, "gamma": p["gamma"] + 1},
    "all-efficient": lambda p: {**p, "all_efficient": {"yes": "no", "no": "yes"}[p["all_efficient"]]},
    "blocker": lambda p: {**p, "one_contraction": {"yes": "no", "no": "yes"}[p["one_contraction"]]},
}


def flip(op, output: str) -> str:
    if op.question not in FLIPS:
        return output
    return json.dumps(FLIPS[op.question](json.loads(output)))


def _flipped_run(workload: str) -> None:
    result = run.run(workload, seed=3, seconds=1.0, trace=False, tamper=flip)
    # the loop runs a prefix of the op list; every op of a flippable
    # question must be rejected, and only those
    questions = [op.question for op in _ops(workload, 3)]
    ran = [questions[i % len(questions)] for i in range(result["attempted"])]
    assert result["failed"] == sum(q in FLIPS for q in ran) >= 1, result
    assert result["correct"] is False, result


def _ops(workload: str, seed: int):
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    pkg = run.Package()
    return workloads.SETUPS[workload](pkg, seed, workloads.Inputs(pkg, workdir)).ops


def test_flipped_solve_verdicts_are_counted():
    for workload in ("solve_unsat", "solve_sat", "blocker_sweep"):
        _flipped_run(workload)


def test_unflipped_run_is_correct():
    result = run.run("blocker_sweep", seed=3, seconds=1.0, trace=False)
    assert result["correct"] is True and result["failed"] == 0, result


def test_verify_oracle_rejects_a_failed_claim_and_a_nonzero_exit():
    op = workloads.Op("verify", "verify", ())
    claims = sorted(oracles.VERIFY_CLAIMS)
    total = oracles.CONNECTED_UP_TO[workloads.VERIFY_MAX_N] + oracles.VERIFY_RANDOM_COUNT
    verdicts = [
        {"claim": c, "instance": f"{total} connected graphs", "status": "pass"} for c in claims
    ]
    oracle = oracles.Oracle(gamma_of=None)
    assert oracle.check(op, 0, json.dumps(verdicts)) is None
    assert oracle.check(op, 1, json.dumps(verdicts)) is not None
    verdicts[0]["status"] = "fail"
    assert oracle.check(op, 0, json.dumps(verdicts)) is not None


def test_each_flip_is_rejected_by_the_oracle():
    pkg = run.Package()
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out.json"
    for name in ("solve_unsat", "solve_sat", "blocker_sweep"):
        wl = workloads.SETUPS[name](pkg, 5, workloads.Inputs(pkg, workdir))
        oracle = oracles.Oracle(pkg.gamma_of)
        for op in wl.ops[:6]:
            r = run.run_op(pkg, op, out)
            assert oracle.check(op, r.exit_code, r.output) is None, op.key
            if op.question in FLIPS:
                assert oracle.check(op, r.exit_code, flip(op, r.output)) is not None, op.key


def test_traced_counts_repeat_for_one_seed():
    first = run.run("blocker_sweep", seed=4, seconds=1.0, trace=True)
    second = run.run("blocker_sweep", seed=4, seconds=1.0, trace=True)
    assert first["correct"] and second["correct"], (first["notes"], second["notes"])
    assert any("equal the earlier run" in note for note in second["notes"]), second["notes"]
    for name in ("domination.gamma_calls", "domination.mds_visited", "graphs.contract_calls"):
        assert first["metrics"][name] == second["metrics"][name], name


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    try:
        for name, fn in tests:
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
