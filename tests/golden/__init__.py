"""Golden digests: committed sha256 pins of simulated behaviour.

A digest is the sha256 of a payload's canonical JSON: sorted keys,
compact separators, tuples as lists, and every float rounded to 9
decimals (the precision ``observables()`` gives simulated times).  The
pinned values live in ``<file>.json`` next to this module.  A failing
check prints the new digest; changing a pinned digest is a deliberate
act, logged in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

__all__ = ["digest", "assert_digest"]

GOLDEN_DIR = Path(__file__).parent


def _canonical(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(payload) -> str:
    """sha256 hex digest of *payload*'s canonical JSON."""
    text = json.dumps(_canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def assert_digest(file: str, name: str, payload) -> None:
    """Assert *payload* hashes to the digest pinned as ``file:name``."""
    pinned = json.loads((GOLDEN_DIR / f"{file}.json").read_text())
    actual = digest(payload)
    assert actual == pinned.get(name), (
        f"golden digest {file}:{name} changed: pinned "
        f"{pinned.get(name)}, now {actual}")
