"""Rewrite every golden file ``criterion_NN.csv`` here from
`acceptance.CRITERIA`: each criterion's rows through ``checks_to_csv``, as
``tests/test_acceptance.py`` compares them.  Prints the names of the files
whose contents changed.  Run it as ``python tests/golden/regenerate.py``,
and say in the change which values moved and why."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from hullkit import acceptance  # noqa: E402
from hullkit.fileio import checks_to_csv  # noqa: E402


def main():
    for label, criterion in acceptance.CRITERIA:
        path = HERE / f"criterion_{label.split()[0].rjust(2, '0')}.csv"
        text = checks_to_csv(criterion())
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
            print(path.name)


if __name__ == "__main__":
    main()
