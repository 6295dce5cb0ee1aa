"""Replacing a program function, for the length of a block, at the name
through which the program calls it. The tracer (spans.py) and the
staffing-grid check (workloads.py) both interpose this way; nested blocks
stack their wrappers and unwind them in reverse order."""
from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def wrapped(module, attr: str, wrap):
    """Within the block, `module.attr` is `wrap(original)`."""
    original = getattr(module, attr)
    setattr(module, attr, wrap(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def recording(into: list):
    """A `wrap` for `wrapped` that appends each returned value to `into`."""

    def wrap(fn):
        def call(*args, **kwargs):
            value = fn(*args, **kwargs)
            into.append(value)
            return value

        return call

    return wrap
