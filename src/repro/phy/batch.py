"""Shared plumbing for the batched receivers.

Every vectorized ``demodulate_batch`` follows the same ragged-input
policy: inputs are grouped by a per-item *dispatch key* (packet length
plus whatever configuration changes the kernel's control flow), each
group is processed with one vectorized dispatch, and results are
scattered back in input order.  Grouping -- rather than padding or
masking -- is what makes the scalar-equivalence guarantee structural:
within a group every item takes exactly the arithmetic the
single-packet kernel would, just with a leading batch axis, so there
are no padded lanes whose garbage could leak into reductions.

Empty batches are rejected eagerly with a :class:`ValueError` naming
the entry point; a silent empty return would let a caller's broken
chunking pass unnoticed.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence, TypeVar

__all__ = ["require_batch", "run_grouped"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def require_batch(items: Sequence[object], where: str) -> None:
    """Raise ``ValueError`` if ``items`` is an empty batch."""
    if len(items) == 0:
        raise ValueError(
            f"{where}: empty batch -- batched entry points require at "
            "least one item"
        )


def run_grouped(
    items: Sequence[_T],
    key_fn: Callable[[_T], Hashable],
    group_fn: Callable[[list[_T]], Sequence[_R]],
    *,
    where: str,
) -> list[_R]:
    """Apply the ragged-batch policy: group, dispatch, scatter.

    ``group_fn`` receives the items of one group (all sharing a
    dispatch key) and must return one result per item, in order.
    Results come back aligned with the original ``items`` order.
    """
    require_batch(items, where)
    # Stable grouping: groups run in first-seen key order.
    groups: dict[Hashable, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(key_fn(item), []).append(i)
    results: list[_R | None] = [None] * len(items)
    for idx in groups.values():
        out = group_fn([items[i] for i in idx])
        if len(out) != len(idx):
            raise RuntimeError(
                f"{where}: group dispatch returned {len(out)} result(s) "
                f"for {len(idx)} item(s)"
            )
        for i, res in zip(idx, out):
            results[i] = res
    return results  # type: ignore[return-value]
