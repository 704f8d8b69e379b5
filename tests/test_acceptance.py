"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with plain `pytest`; the same checks back the
`hullkit selftest` subcommand.

Each criterion's rows must also print exactly as recorded in
``golden/criterion_NN.csv``, and ``search --n 50 --seed 7 --json`` must
write the reports of ``golden/search_2d.json`` and ``search_3d.json``:
both print values at the rounding level, so a change to any body's bits
shows there.  A change that means to alter a value rewrites the files with
``python tests/golden/regenerate.py`` and says so.  No criterion writes to
stdout or stderr: `selftest` prints the rows alone."""

from pathlib import Path

import pytest

from golden.regenerate import search_report
from hullkit import acceptance
from hullkit.fileio import checks_to_csv

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "label,criterion",
    acceptance.CRITERIA,
    ids=[label.split()[0].rjust(2, "0") for label, _ in acceptance.CRITERIA],
)
def test_criterion(label, criterion, capsys):
    rows = criterion()
    # the criteria's own CLI runs print nothing past them
    assert capsys.readouterr() == ("", "")
    passed = all(row.passed is not False for row in rows)
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: {'PASS' if passed else 'FAIL'}")
    failing = [row for row in rows if row.passed is False]
    detail = "; ".join(f"{row.name}={row.value:.6g} (tol {row.tolerance})" for row in failing)
    assert passed, f"criterion {label} failed: {detail}"
    golden = GOLDEN / f"criterion_{label.split()[0].rjust(2, '0')}.csv"
    assert checks_to_csv(rows) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("dim", [2, 3])
def test_search_report(dim):
    # about 0.03 s in 2D and 1.4 s in 3D
    assert search_report(dim) == (GOLDEN / f"search_{dim}d.json").read_text(encoding="utf-8")
