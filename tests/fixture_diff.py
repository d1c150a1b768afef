"""Name the first entry a re-recorded fixture changes.

The golden fixtures' ``__main__`` re-record commands print this before
they write, so the line a fixture's docstring quotes is copied, not
hunted for.
"""

import json
from pathlib import Path


def first_difference(old, new, path=""):
    """``(path, old entry, new entry)`` of the first place ``new``
    departs from ``old``, or None.  Objects are walked key by key in
    ``old``'s order, then ``new``'s added keys; a list is compared entry
    by entry and its first differing entry is reported whole (an
    entry missing on one side as None)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(key for key in new if key not in old)]:
            found = first_difference(old.get(key), new.get(key),
                                     f"{path}/{key}")
            if found is not None:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list) and old != new:
        index = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                     min(len(old), len(new)))
        return (f"{path}[{index}]",
                old[index] if index < len(old) else None,
                new[index] if index < len(new) else None)
    return None if old == new else (path, old, new)


def print_first_difference(fixture: Path, recording) -> None:
    """Print where ``recording`` first departs from the committed
    ``fixture`` (compared as JSON), or that it does not."""
    if not fixture.exists():
        print(f"{fixture.name}: no committed file")
        return
    old = json.loads(fixture.read_text(encoding="utf-8"))
    found = first_difference(old, json.loads(json.dumps(recording)))
    if found is None:
        print(f"{fixture.name}: identical to the committed file")
        return
    path, before, after = found
    print(f"{fixture.name}: first difference at {path}\n"
          f"  committed: {json.dumps(before)}\n"
          f"  recorded:  {json.dumps(after)}")
