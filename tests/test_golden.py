"""Golden CLI outputs: the kernel verbs must print the same JSON, byte for byte.

Kernel bases are canonical (RREF), so any change to the solver that keeps the
mathematics must keep these files.  They were written by the dense solver
that preceded the sparse one; regenerate them only for an intended change of
answer, with ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germfield import cli, linear_centralizer_table, parse_field
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


def _output(verb, field, n) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--json", verb, field, "--max-degree", str(n)])
    assert rc == 0
    return out.getvalue()


def _path(verb, name, n) -> Path:
    return GOLDEN / f"{verb}_{name}_N{n}.json"


@pytest.mark.parametrize("row", sorted(TABLE_FIELDS))
def test_fields_are_the_table_rows(row):
    table = linear_centralizer_table(row, **TABLE_PARAMS.get(row, {}))
    assert parse_field(TABLE_FIELDS[row], 2) == table.field


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name,field,n", CASES, ids=[f"{c[0]}_N{c[2]}" for c in CASES])
def test_output_matches_golden(verb, name, field, n):
    assert _output(verb, field, n) == _path(verb, name, n).read_text()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.mkdir(exist_ok=True)
    for verb in VERBS:
        for name, field, n in CASES:
            _path(verb, name, n).write_text(_output(verb, field, n))
