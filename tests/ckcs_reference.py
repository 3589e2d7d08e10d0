"""Plain reference version of the ckcs fresh root-code draw.

``CkcsServer._blocked_root_codes`` first decides exactly whether any
``ROOT_CODE_LEN``-digit code is still free, then ``_draw_root_code`` draws
against the blocked prefixes.  The function here is the direct rejection
loop over the whole code log that the pair replaces, with an attempt cap so
that a used-up code space ends instead of spinning.  Tests require the
server to draw the same code and leave its generator in the same state
wherever this loop ends.
"""

from __future__ import annotations

from gkms.tree import DIGITS, ROOT_CODE_LEN


def reference_fresh_root_code(code_log, rng, max_attempts):
    """The first draw prefix-disjoint from every logged code, or None once
    ``max_attempts`` draws all failed."""
    for _ in range(max_attempts):
        code = "".join(rng.choice(DIGITS) for _ in range(ROOT_CODE_LEN))
        if not any(code.startswith(c) or c.startswith(code) for c in code_log):
            return code
    return None
