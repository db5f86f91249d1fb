"""The demos' one check: a claim a demo prints must hold, or the run fails.

An ``assert`` would vanish under ``python -O``; this check does not.
"""

import sys


def claim(holds: bool, what: str) -> bool:
    """Return ``holds``; if it is false, exit with status 1 naming ``what``."""
    if not holds:
        sys.exit(f"false claim: {what}")
    return holds
