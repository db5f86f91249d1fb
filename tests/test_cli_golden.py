"""Golden stdout: every README command and the output edge cases, byte for
byte and exit code for exit code, in every output format.

``golden/cli_stdout.json`` maps each case, ``"<command line> <format
flags>"``, to the exit code and stdout that ``cli.main`` gave for it.
Rewrite it only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

from sievecycles import cli
from sievecycles.verify import CheckResult

FIXTURE = Path(__file__).resolve().parent / "golden" / "cli_stdout.json"

FORMATS = ("--format plain", "--format csv", "--format csv --no-header",
           "--format json", "--json")

# WHEEL_FILE stands for a file written by ``wheel --n 4 --json``.
COMMANDS = (
    # the README
    "count --n 4 --x 52.5",
    "count --n 4 --x 105/2",
    "count --n 10 --x 6469693230 --method legendre",
    "count --moduli 2,3,5 --x 209 --method periodic_reduction",
    "wheel --n 3",
    "wheel --n 4",
    "list --n 4 --lo 100 --hi 140",
    "list --from-wheel WHEEL_FILE --lo 1 --hi 1000",
    "twins --n 4 --enumerate",
    "pairs --n 4 --a 3 --b 3",
    "cycles --n 4 --chosen 5",
    "table --n 10",
    "phi --x 55660",
    "ring --n 3 --x 7 --inverse",
    "verify --depth standard",
    # the empty basis
    "count --n 0 --x 52.5",
    "wheel --n 0",
    "list --n 0",
    "list --n 0 --lo 0 --hi 5",
    "table --n 0",
    "twins --n 0 --enumerate",
    "ring --n 0 --x 5",
    # composite moduli
    "count --moduli 4,9,25 --x 450/7 --method meissel",
    "wheel --moduli 4,9,25",
    "list --moduli 4,9,25 --lo 0 --hi 40",
    "pairs --moduli 4,9,25 --a 2 --b 2 --enumerate",
    "cycles --moduli 4,9,25 --chosen 9",
    "table --moduli 4,9,25",
    "ring --moduli 4,9,25 --x 2",
    "ring --moduli 4,9,25 --vector 1,1,1 --inverse",
    "count --moduli 20,2783 --x 55660/3 --method generalized_meissel --drop 2783",
    "list --moduli 20,2783 --lo 0 --hi 60",
    "pairs --moduli 20,2783",
    "cycles --moduli 20,2783 --chosen 20",
    "table --moduli 20,2783",
    # pairs with and without the centers, vectors, small corners
    "pairs --n 4",
    "pairs --n 4 --enumerate",
    "pairs --n 3 --a 2 --b 4 --enumerate",
    "ring --n 3 --vector 1,2,4",
    "cycles --n 4 --chosen 2",
    "phi --x 1",
    "phi --x 210",
    "verify --depth small --checks wheel.symmetry,ring.bijection",
    # run_checks replaced by FAILING_CHECKS
    "FAILING verify --depth small",
)

FAILING_CHECKS = [CheckResult("wheel.symmetry", True, "ok"),
                  CheckResult("fake.check", False, "boom, with a comma")]


@contextmanager
def failing_checks():
    honest = cli.run_checks
    cli.run_checks = lambda **kw: list(FAILING_CHECKS)
    try:
        yield
    finally:
        cli.run_checks = honest


def case_ids() -> list[str]:
    return [f"{command} {fmt}" for command in COMMANDS for fmt in FORMATS]


def run_case(case: str, wheel_file: str) -> dict:
    """Exit code and stdout of one case through ``cli.main``."""
    argv = [wheel_file if tok == "WHEEL_FILE" else tok for tok in case.split()]
    out = io.StringIO()
    if argv[0] == "FAILING":
        with failing_checks():
            code = cli.main(argv[1:], out=out)
    else:
        code = cli.main(argv, out=out)
    return {"code": code, "stdout": out.getvalue()}


def write_wheel_file(directory: Path) -> str:
    out = io.StringIO()
    if cli.main(["wheel", "--n", "4", "--json"], out=out) != 0:
        raise RuntimeError("wheel --n 4 --json failed")
    path = directory / "wheel4.json"
    path.write_text(out.getvalue(), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def wheel_file(tmp_path_factory) -> str:
    return write_wheel_file(tmp_path_factory.mktemp("golden"))


def test_fixture_covers_exactly_the_cases(golden):
    assert list(golden) == case_ids()


@pytest.mark.parametrize("case", case_ids())
def test_stdout_and_exit_code(case, golden, wheel_file, capsys):
    assert run_case(case, wheel_file) == golden[case]
    assert capsys.readouterr().err == ""


def _write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        wheel_file = write_wheel_file(Path(tmp))
        cases = {case: run_case(case, wheel_file) for case in case_ids()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
