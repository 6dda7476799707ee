"""Runtime proof obligations: the premises that a derived shortcut (an
exact key, a checked binary search, a closure's fixed point, a reference
construction) rests on, checked where they are used.  A failed one is an
AssertionError naming it, which the harness reports as the verdict
`error` (exit 4), never `fail`.  It is a call, not an assert, so it holds
under python -O too.
"""


def obligation(name: str, ok, **values) -> None:
    """Raise AssertionError naming the obligation and these values unless ok."""
    if not ok:
        detail = ", ".join(f"{k}={v}" for k, v in values.items())
        raise AssertionError(f"{name} ({detail})" if values else name)
