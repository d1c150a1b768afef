"""Guards on the shape of ``src/repro`` that review alone would miss."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_view_manager_stays_split():
    """``ViewManager`` is the registry and the ingest half of Algorithm
    1; drive code belongs in ``views/drive.py`` and read glue in
    ``views/read.py``."""
    lines = (SRC / "views" / "manager.py").read_text().count("\n")
    assert lines <= 450, f"views/manager.py has grown to {lines} lines"


def test_there_is_one_propagation_pipeline():
    offenders = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                 if "propagation_pipeline" in path.read_text()]
    assert offenders == []
