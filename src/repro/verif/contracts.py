"""Runtime-checked requires/ensures contracts.

The paper's syscall interface attaches a `requires` and an `ensures` clause
to each function (Section 3's `read` example).  In the Rust/Verus artifact
those are checked statically; here they are written as executable predicates
and checked at runtime, always.
"""

from __future__ import annotations

import functools


class ContractError(AssertionError):
    """A requires or ensures clause failed at runtime."""


def requires(predicate, message: str = ""):
    """Precondition decorator: `predicate(*args, **kwargs)` must hold."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not predicate(*args, **kwargs):
                raise ContractError(
                    f"requires clause failed for {func.__qualname__}"
                    + (f": {message}" if message else "")
                )
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    return decorate


def ensures(predicate, message: str = ""):
    """Postcondition decorator.

    `predicate(result, *args, **kwargs)` must hold after the call.  To
    relate pre- and post-states the callee's owner object should expose a
    `view()` snapshot; use :func:`snapshot` to capture it:

        @ensures(lambda result, self, fd, buf, old: read_spec(old, self.view(), ...))
    is expressed by pairing with @snapshot("old", lambda self, *a, **k: self.view()).
    """

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            if not predicate(result, *args, **kwargs):
                raise ContractError(
                    f"ensures clause failed for {func.__qualname__}"
                    + (f": {message}" if message else "")
                )
            return result

        wrapper.__wrapped__ = func
        return wrapper

    return decorate


def snapshot(keyword: str, capture):
    """Capture `capture(*args, **kwargs)` before the call and pass it to the
    wrapped function as keyword `keyword` — the `old(sys)` of Verus."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            kwargs[keyword] = capture(*args, **kwargs)
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    return decorate
