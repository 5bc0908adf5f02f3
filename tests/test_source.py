"""The package's source convention: every line of src/qinterleave/*.py fits
in 100 columns."""
from pathlib import Path

import qinterleave


def test_lines_fit_100_columns():
    wide = [f"{path.name}:{number}"
            for path in sorted(Path(qinterleave.__file__).parent.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert not wide, f"lines past 100 columns: {wide}"
