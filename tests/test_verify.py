import os
import subprocess
import sys
from pathlib import Path

import pytest

from sievecycles import run_checks
from sievecycles.verify import CHECKS


def test_small_depth_all_pass():
    results = run_checks(depth="small", seed=7)
    assert len(results) == len(CHECKS)
    failures = [r.name for r in results if not r.passed]
    assert failures == []


def test_every_registered_check_has_a_detail():
    for r in run_checks(depth="small", seed=1):
        assert r.detail


def test_subset_selection():
    names = ["wheel.symmetry", "ring.bijection"]
    results = run_checks(depth="small", names=names)
    assert [r.name for r in results] == names


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(depth="small", names=["wheel.symmetry", "nope.nothing"])


def test_empty_selection_rejected():
    with pytest.raises(ValueError, match="no checks selected"):
        run_checks(depth="small", names=[])


def test_bad_depth_rejected():
    with pytest.raises(ValueError):
        run_checks(depth="extreme")


def test_deterministic_for_seed():
    a = run_checks(depth="small", seed=3)
    b = run_checks(depth="small", seed=3)
    assert a == b


# Wraps count_meissel to answer value + 1, then runs the two checks that
# compare it with the other routes.  Prints the optimize level, then one
# "name passed" line per check.
_INJECTED_FAULT = """
import sys
from sievecycles import counting, verify

honest = counting.count_meissel
verify.count_meissel = lambda basis, x: counting.CountResult(
    honest(basis, x).value + 1, honest(basis, x).method)
print("optimize", sys.flags.optimize)
for r in verify.run_checks("small", 0, ["count.method_agreement", "count.peel_any"]):
    print(r.name, r.passed)
"""


def test_checks_catch_injected_fault_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", _INJECTED_FAULT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["optimize 1",
                                        "count.method_agreement False",
                                        "count.peel_any False"]
