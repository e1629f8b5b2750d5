"""Golden CLI outputs: every command below must print the same text, byte for byte.

Kernel bases are canonical (RREF), so any change to the solver that keeps the
mathematics must keep the kernel files (``golden/*.json``, written by the
dense solver that preceded the sparse one).  ``golden/cli/`` holds the README
commands with ``--json`` (one of them also in the README's spelling, with
``--json`` after the arguments), every README command as text, the cases of
``MORE_COMMANDS`` (text, and ``--json`` for those in ``MORE_JSON``), and
``resolve`` on the seven germs of ``test_blowup.RESOLUTION_GERMS``, and ``blowup`` (text
and ``--json``) on a germ with every kind of divisor point.  A file holds the standard
output, and for a nonzero exit also the exit code and standard error.
``golden/scripts/`` holds what each script of ``scripts/`` prints, with its
timing column masked.
Regenerate the files only for an intended change of answer, with
``PYTHONPATH=src python tests/test_golden.py --write``.

One test checks every file of ``FILES`` again in a fresh process where
importing sympy fails: the default paths never reach blowup's sympy fallback.
The files of ``SYMPY_FILES`` do reach it, and are left out of that run.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germfield import cli, lie_bracket, linear_centralizer_table, parse_field, parse_poly
from germfield.gaussian import gq

GOLDEN = Path(__file__).parent / "golden"

# the eight reference-table rows (row 2 ratio 5/3, row 3 p:q = 1:2, row 5
# n = 2, row 8 p = 1 with residue 1) and the 3D Poincare-Dulac field
TABLE_FIELDS = {
    1: "x, y",
    2: "x, 5/3*y",
    3: "x, -1/2*y",
    4: "x, 0",
    5: "x, 2*y",
    6: "0, x",
    7: "x, x + y",
    8: "x^2, y + x*y",
}
TABLE_PARAMS = {2: {"ratio": gq(Fraction(5, 3))}, 3: {"p": 1, "q": 2}, 5: {"n": 2},
                8: {"p": 1, "residue": gq(1)}}
CASES = [(f"row{row}", text, 6) for row, text in TABLE_FIELDS.items()]
CASES += [(f"row{row}", TABLE_FIELDS[row], 10) for row in (1, 2, 3)]
CASES += [("pd3", "2*x + y^2, y, 3*z + y^3", 3)]
VERBS = ("centralizer", "first-integrals")

README_COMMANDS = {
    "centralizer": ["centralizer", "x, 2*y", "--max-degree", "4"],
    "first-integrals": ["first-integrals", "x, -y"],
    "rank": ["rank", "3*y^2, -2*x"],
    "check-commute": ["check-commute", "x, y", "y, -x"],
    "bracket": ["bracket", "y, 0", "0, x"],
    "wedge": ["wedge", "x, 2*y", "y, 0"],
    "wedge-weights": ["wedge", "--weights", "1,2", "y, x^2"],
    "resonances": ["resonances", "1,2", "--bound", "3"],
    "classify": ["classify", "x + y, x"],
    "blowup": ["blowup", "x^2, y^2"],
    "resolve": ["resolve", "2*y, 3*x^2", "--depth", "6"],
    "verify-integral": ["verify-integral", "2*x*y, 2*y^2 - x^3", "(y^2 + x^3) / (x^2)"],
    "dual-pair": ["dual-pair", "x, 0", "0, y"],
    "log-decomp": ["log-decomp", "x^2 dy - y dx", "--denominator", "x^2*y",
                   "--factor", "x:2", "--factor", "y:1"],
    "cr-pair": ["cr-pair", "z^2", "--max-degree", "6"],
    "table": ["table", "5", "--n", "2"],
}
# text-only variants, jets with tentative vectors, an eigenvalue line, a
# rational ratio, an input error (exit 2) and the exit-1 answers
MORE_COMMANDS = {
    "blowup-chart1": ["blowup", "x^2, y^2", "--chart", "1"],
    "blowup-chart2": ["blowup", "x^2, y^2", "--chart", "2"],
    "blowup-non-isolated": ["blowup", "y, 0"],
    "resolve-force-radial": ["resolve", "2*y, 3*x^2", "--depth", "6", "--force-radial"],
    "centralizer-tentative": ["centralizer", "x^2, y + x*y", "--max-degree", "5"],
    "first-integrals-tentative": ["first-integrals", "x, -y + x^3", "--max-degree", "5"],
    "classify-eigenvalues": ["classify", "x, i*y"],
    "classify-ratio": ["classify", "x, -3/2*y"],
    "table-no-row": ["table", "9"],
    "check-commute-false": ["check-commute", "x, y^2", "y, -x"],
    "verify-integral-false": ["verify-integral", "x, y", "(x) / (y^2)"],
    "log-decomp-no-solution": ["log-decomp", "x dy", "--denominator", "x^2*y",
                               "--factor", "x:2", "--factor", "y"],
}
MORE_JSON = ("blowup-chart2", "blowup-non-isolated", "centralizer-tentative", "first-integrals-tentative", "check-commute-false",
             "verify-integral-false", "log-decomp-no-solution", "classify-ratio")
RESOLUTION_GERMS = {
    "cusp": "2*y, 3*x^2",
    "two_squares": "x^2, y^2",
    "pencil": "y + x^3, x^2*y",
    "irrational": "x^2, y^2 + x*y - 2*x^2",
    "saddle_node_leaf": "y^2 + x^3, x^4*y",
    "cubic": "x^3 - 3*x*y^2, 3*x^2*y - y^3",
    "deep": "y^3 + x^5, x^4*y",
}

# golden file -> argv
FILES = {
    f"{verb}_{name}_N{n}.json": ["--json", verb, field, "--max-degree", str(n)]
    for verb in VERBS for name, field, n in CASES
}
FILES.update({f"cli/{name}.json": ["--json", *argv] for name, argv in README_COMMANDS.items()})
FILES["cli/centralizer-json-appended.txt"] = [*README_COMMANDS["centralizer"], "--json"]
FILES.update({f"cli/{name}.txt": argv for name, argv in README_COMMANDS.items()})
FILES.update({f"cli/{name}.txt": argv for name, argv in MORE_COMMANDS.items()})
FILES.update({f"cli/{name}.json": ["--json", *MORE_COMMANDS[name]] for name in MORE_JSON})
FILES.update({
    f"cli/resolve_{name}.json": ["--json", "resolve", germ, "--depth", "16"]
    for name, germ in RESOLUTION_GERMS.items()
})

# the witness (t - 1)(t^2 - 2)(t^2 - 3) is square-free of degree 5, which only
# sympy's factor_list splits into a root and two markers
EVERY_KIND = "x^6, (y - x)*(y^2 - 2*x^2)*(y^2 - 3*x^2)"
SYMPY_FILES = {
    "cli/blowup-every-kind.txt": ["blowup", EVERY_KIND],
    "cli/blowup-every-kind.json": ["--json", "blowup", EVERY_KIND],
}
ALL_FILES = {**FILES, **SYMPY_FILES}


def _output(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        return out.getvalue()
    return f"{out.getvalue()}exit {code}\n{err.getvalue()}"


def mismatches() -> list[str]:
    return [name for name, argv in FILES.items() if _output(argv) != (GOLDEN / name).read_text()]


@pytest.mark.parametrize("row", sorted(TABLE_FIELDS))
def test_fields_are_the_table_rows(row):
    table = linear_centralizer_table(row, **TABLE_PARAMS.get(row, {}))
    assert parse_field(TABLE_FIELDS[row], 2) == table.field


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name,field,n", CASES, ids=[f"{c[0]}_N{c[2]}" for c in CASES])
def test_output_matches_golden(verb, name, field, n):
    path = f"{verb}_{name}_N{n}.json"
    assert _output(FILES[path]) == (GOLDEN / path).read_text()


@pytest.mark.parametrize("name,field,n", CASES, ids=[f"{c[0]}_N{c[2]}" for c in CASES])
def test_certified_golden_vectors_are_in_the_kernel(name, field, n):
    # each certified vector of a kernel file, parsed back from its text,
    # commutes with X (centralizer) or is annihilated by it (first integrals)
    x = parse_field(field)
    for verb in VERBS:
        for b in json.loads((GOLDEN / f"{verb}_{name}_N{n}.json").read_text())["basis"]:
            if verb == "centralizer":
                assert lie_bracket(x, parse_field(b["text"], x.dim)).is_zero()
            else:
                assert x.apply(parse_poly(b["text"], x.dim)).is_zero()


CLI_FILES = sorted(name for name in ALL_FILES if name.startswith("cli/"))


@pytest.mark.parametrize("path", CLI_FILES, ids=[p[len("cli/"):] for p in CLI_FILES])
def test_cli_output_matches_golden(path):
    assert _output(ALL_FILES[path]) == (GOLDEN / path).read_text()


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = [{src!r}]\n{code}"],
        capture_output=True, text=True, cwd=Path(__file__).parent,
    )


def test_every_golden_command_runs_without_sympy():
    run = _fresh_python(
        "sys.modules['sympy'] = None\n"
        "import germfield\n"
        "import test_golden\n"
        "print(test_golden.mismatches())\n"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_import_and_centralizer_leave_sympy_unloaded():
    run = _fresh_python(
        "import germfield\n"
        "from germfield import cli\n"
        "cli.main(['centralizer', 'x, 2*y', '--max-degree', '4'])\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    assert run.returncode == 0, run.stderr


# the README scripts and their golden output, the timing column masked
SCRIPTS = ("centralizer_table.py", "resolve_examples.py")
TIMING = re.compile(r", \d+\.\d ms$", re.M)


def _script_output(script: str) -> str:
    path = Path(__file__).resolve().parent.parent / "scripts" / script
    run = _fresh_python(f"import runpy; runpy.run_path({str(path)!r}, run_name='__main__')")
    assert run.returncode == 0, run.stderr
    return TIMING.sub(", <ms> ms", run.stdout)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script):
    out = _script_output(script)
    assert out == (GOLDEN / "scripts" / f"{Path(script).stem}.txt").read_text()
    if script == "centralizer_table.py":
        # every table row's kernel spans its tabulated generators
        rows = [line for line in out.splitlines() if line.startswith("  kernel dim")]
        assert len(rows) == 8 and all(", span match True," in line for line in rows)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    for name, argv in ALL_FILES.items():
        (GOLDEN / name).write_text(_output(argv))
    (GOLDEN / "scripts").mkdir(exist_ok=True)
    for script in SCRIPTS:
        (GOLDEN / "scripts" / f"{Path(script).stem}.txt").write_text(_script_output(script))
