"""Named array-tile tasks: the work units executors know how to run.

A task is a module-level function ``task(src, dst, tile, common)``
operating on one disjoint slice of a shared input/output array pair —
module-level so the process executor can name it across a spawn
boundary (closures don't pickle; a registry key does). The thread and
serial executors call the same functions directly, so every executor
runs byte-for-byte the same tile code.

The one engine task, ``ntt_tile``, runs a single (polynomial, channel
range) tile of a batched transform through the basis's own plan,
restricted to the tile's channels — the same channel-range entry the
serial engine walks its cache-sized blocks through, so tiled output
is bit-identical to the serial loop. Imports of the engine stay
inside the function bodies: this module must be importable by a bare
spawned worker before the heavy numeric stack is touched, and the
engine imports :mod:`repro.parallel` itself.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = ["TASKS", "task"]

#: Registry of picklable tile tasks, keyed by the wire name the
#: executors dispatch on.
TASKS: dict[str, Callable[..., None]] = {}


def task(name: str) -> Callable[[Callable[..., None]], Callable[..., None]]:
    """Register ``fn`` under ``name`` in :data:`TASKS`."""

    def register(fn: Callable[..., None]) -> Callable[..., None]:
        TASKS[name] = fn
        return fn

    return register


@task("ntt_tile")
def _ntt_tile(src: Any, dst: Any, tile: tuple[int, int, int],
              common: tuple) -> None:
    """One (polynomial, channel-range) tile of a batched transform.

    ``common`` is ``(op, primes, n, lazy, constants)`` — enough to
    rebuild the basis transformer (cached per process) and pick the
    plan it runs on channels ``[c0, c1)``. ``src``/``dst`` are the full
    stacked arrays; the tile touches only its own disjoint slices, so
    any number of tiles may run concurrently.
    """
    from ..nttmath import batch

    op, primes, n, lazy, constants = common
    jdx, c0, c1 = tile
    bt = batch.basis_transformer(primes, n)
    if op == "forward_broadcast":
        bt._fwd.apply_broadcast(bt, src[jdx], dst[jdx, c0:c1], lazy=lazy,
                                channels=(c0, c1))
        return
    if op == "forward":
        plan = bt._fwd
    elif op == "inverse":
        plan = bt._inv
    elif op == "inverse_scaled":
        plan = bt.scaled_plan(tuple(constants))
    else:  # pragma: no cover - dispatcher bug, not a runtime state
        raise ValueError(f"unknown ntt tile op {op!r}")
    plan.apply(bt, src[jdx, c0:c1], dst[jdx, c0:c1], lazy=lazy,
               channels=(c0, c1))
