"""Rewrite every golden file here: ``criterion_NN.csv`` from
`acceptance.CRITERIA`, each criterion's rows through ``checks_to_csv``, and
``search_2d.json`` and ``search_3d.json`` from `search_report`, as
``tests/test_acceptance.py`` compares them.  Prints the names of the files
whose contents changed.  Run it as ``python tests/golden/regenerate.py``,
and say in the change which values moved and why."""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from hullkit import acceptance, cli  # noqa: E402
from hullkit.fileio import checks_to_csv  # noqa: E402


def search_report(dim):
    """The report of ``hullkit search --n 50 --seed 7 --dim DIM --json``,
    as the command writes it, less its "command" field, which names the
    report's own path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(["search", "--n", "50", "--seed", "7", "--dim", str(dim), "--json", str(path)])
        report = json.loads(path.read_text(encoding="utf-8"))
    del report["command"]
    return json.dumps(report, indent=2) + "\n"


def main():
    texts = {f"criterion_{label.split()[0].rjust(2, '0')}.csv": checks_to_csv(criterion())
             for label, criterion in acceptance.CRITERIA}
    texts.update({f"search_{dim}d.json": search_report(dim) for dim in (2, 3)})
    for name, text in texts.items():
        path = HERE / name
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
            print(path.name)


if __name__ == "__main__":
    main()
