"""Lightweight runtime array contracts for PHY/matcher entry points.

The reproduction's invariants are *shape and dtype* invariants: a
ZigBee symbol is exactly 32 chips, a waveform is 1-D ``complex128``,
an on-air bit array is ``uint8``.  The :func:`shapes` and
:func:`dtypes` decorators make those contracts executable without
taxing the hot path:

* **Disabled (the default)** the decorators return the wrapped
  function *unchanged* — zero wrapper, zero overhead, byte-identical
  behavior.  Enable by setting ``REPRO_CONTRACTS=1`` in the
  environment before import, or calling :func:`set_enabled` before the
  decorated module is imported (tests use :func:`checked` instead,
  which binds eagerly).
* **Enabled** each call validates ndarray positional arguments (and
  optionally the return value) and raises :class:`ContractError` with
  the offending argument, expected and actual shape/dtype.

Shape mini-language (``shapes``)::

    @shapes("n_sym,64 -> n_sym*80")     # (n_sym, 64) in, (n_sym*80,) out
    @shapes("n ; n -> n")               # two 1-D inputs of equal length
    @shapes("n_bits ->")                # input-only contract

Dimensions are integer literals (checked exactly), symbol names (bound
on first sight, checked for consistency after), ``_`` (wildcard), or
arithmetic over previously-bound symbols (``n_sym*80``, ``n+2``) —
expressions are evaluated with the bound symbols once all inputs are
seen, so they are most useful on the output side.  ``;`` separates
consecutive ndarray positional arguments; non-array positionals are
skipped when matching specs to arguments.

Ragged batch entry points (functions such as ``viterbi.decode_batch``
taking a *sequence* of per-item arrays) use the bracketed per-item
form::

    @shapes("[n_coded] ->")             # each stream in the sequence is 1-D

A bracketed argument spec matches either a list/tuple whose ndarray
elements each satisfy the inner dims (with an independent symbol
binding per item, so ragged batches bind ``n_coded`` per stream), or
a stacked ndarray with one extra leading batch axis.

The mini-language is shared with the static verifier
(``tools/reproshape``): :func:`parse_shape_spec` returns the parsed
:class:`ShapeSpec` and :func:`eval_shape_expr` evaluates one dimension
expression under a symbol binding.  Both are pure and importable
without touching the runtime toggle, so the static and runtime
semantics cannot drift.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

__all__ = [
    "ContractError",
    "ArgSpec",
    "ShapeSpec",
    "DIM_WILDCARD",
    "parse_shape_spec",
    "dim_kind",
    "eval_shape_expr",
    "enabled",
    "set_enabled",
    "shapes",
    "dtypes",
    "checked",
]

F = TypeVar("F", bound=Callable[..., Any])

_TRUTHY = {"1", "true", "yes", "on"}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CONTRACTS", "0").strip().lower() in _TRUTHY


_ENABLED: bool = _env_enabled()


class ContractError(TypeError):
    """An array argument or return value violated a declared contract."""


def enabled() -> bool:
    """Whether contract decorators are active (``REPRO_CONTRACTS``)."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Toggle contract checking for *subsequently decorated* functions.

    Functions decorated while checking was disabled stay unwrapped (the
    zero-overhead guarantee cuts both ways); use :func:`checked` to
    build an always-validating wrapper explicitly, e.g. in tests.
    """
    global _ENABLED
    _ENABLED = bool(flag)


# ----------------------------------------------------------------------
# shape spec parsing (the public, statically-reusable DSL surface)
# ----------------------------------------------------------------------
#: The anonymous any-size dimension token.
DIM_WILDCARD = "_"

#: AST nodes a dimension expression may contain.  Shared by the runtime
#: evaluator below and the symbolic evaluator in ``tools/reproshape`` —
#: one grammar, two interpretations.
_EXPR_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.FloorDiv,
    ast.Div,
    ast.Mod,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
)


@dataclass(frozen=True)
class ArgSpec:
    """Shape spec for one ndarray positional argument.

    ``per_item`` marks the bracketed form (``"[n_codes]"``): the
    argument is a *sequence* of arrays (or a stacked array with one
    extra leading batch axis) whose items each match ``dims``.
    """

    dims: tuple[str, ...]
    per_item: bool = False


@dataclass(frozen=True)
class ShapeSpec:
    """A parsed ``@shapes(...)`` contract: input arg specs + output dims."""

    args: tuple[ArgSpec, ...]
    out_dims: tuple[str, ...] | None


def dim_kind(dim: str) -> str:
    """Classify one dim token: ``wildcard``, ``literal``, ``symbol`` or ``expr``."""
    if dim == DIM_WILDCARD:
        return "wildcard"
    if dim.isdigit():
        return "literal"
    if dim.isidentifier():
        return "symbol"
    return "expr"


def parse_dim_expr(expr: str) -> ast.Expression:
    """Parse one arithmetic dim expression, enforcing the DSL grammar.

    Only integer literals, symbol names and ``+ - * // / % **`` (plus
    unary sign and parentheses) are admitted; anything else raises
    ``ValueError``.  Returns the validated ``ast.Expression`` so both
    the runtime and the symbolic evaluator interpret one tree.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed shape expression {expr!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES) and not isinstance(
            node, (ast.operator, ast.unaryop, ast.expr_context)
        ):
            raise ValueError(
                f"shape expression {expr!r} uses unsupported syntax "
                f"({type(node).__name__})"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise ValueError(
                f"shape expression {expr!r} contains a non-integer literal"
            )
    return tree


def eval_shape_expr(expr: str, binding: Mapping[str, int]) -> int:
    """Evaluate a dim expression under a symbol binding (pure function).

    Raises ``ValueError`` for grammar violations and ``KeyError`` for
    unbound symbols; division follows Python semantics (``//`` exact,
    ``/`` truncated to int at the end, matching the historical
    behavior of output-side expressions like ``n/2``).
    """
    tree = parse_dim_expr(expr)

    def fold(node: ast.expr) -> float:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return binding[node.id]
        if isinstance(node, ast.UnaryOp):
            value = fold(node.operand)
            return -value if isinstance(node.op, ast.USub) else +value
        assert isinstance(node, ast.BinOp)
        left, right = fold(node.left), fold(node.right)
        op = node.op
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.FloorDiv):
            return left // right
        if isinstance(op, ast.Div):
            return left / right
        if isinstance(op, ast.Mod):
            return left % right
        assert isinstance(op, ast.Pow)
        return left**right

    return int(fold(tree.body))


def parse_shape_spec(spec: str) -> ShapeSpec:
    """Parse the shape mini-language into a :class:`ShapeSpec`.

    ``"n,64 ; m -> n*80"`` -> ``ShapeSpec((ArgSpec(("n","64")),
    ArgSpec(("m",))), ("n*80",))``; ``"[n] ->"`` marks a per-item
    (ragged batch) argument.  Raises ``ValueError`` on malformed specs.
    """
    if "->" in spec:
        lhs, _, rhs = spec.partition("->")
        rhs = rhs.strip()
        out_dims = (
            tuple(d.strip() for d in rhs.split(",") if d.strip()) if rhs else None
        )
    else:
        lhs, out_dims = spec, None
    if out_dims is not None and any(
        "[" in d or "]" in d for d in out_dims
    ):
        raise ValueError(
            f"per-item brackets are not allowed on the output side: {spec!r}"
        )
    args: list[ArgSpec] = []
    lhs = lhs.strip()
    if lhs:
        for arg_spec in lhs.split(";"):
            arg_spec = arg_spec.strip()
            per_item = arg_spec.startswith("[")
            if per_item:
                if not arg_spec.endswith("]"):
                    raise ValueError(
                        f"unbalanced per-item brackets in shape contract {spec!r}"
                    )
                arg_spec = arg_spec[1:-1]
            if "[" in arg_spec or "]" in arg_spec:
                raise ValueError(
                    f"stray bracket inside argument spec in shape contract {spec!r}"
                )
            dims = tuple(d.strip() for d in arg_spec.split(",") if d.strip())
            if not dims:
                raise ValueError(f"empty argument spec in shape contract {spec!r}")
            for dim in dims:
                if dim_kind(dim) == "expr":
                    parse_dim_expr(dim)  # fail fast on grammar violations
            args.append(ArgSpec(dims=dims, per_item=per_item))
    if out_dims is not None:
        for dim in out_dims:
            if dim_kind(dim) == "expr":
                parse_dim_expr(dim)
    return ShapeSpec(args=tuple(args), out_dims=out_dims)


def _check_dims(
    dims: Sequence[str],
    shape: tuple[int, ...],
    binding: dict[str, int],
    *,
    where: str,
    fname: str,
) -> list[tuple[str, int]]:
    """Match one shape against its dim specs; returns deferred exprs."""
    if len(shape) != len(dims):
        raise ContractError(
            f"{fname}: {where} has {len(shape)} dimension(s) {shape}, "
            f"contract expects {len(dims)} ({','.join(dims)})"
        )
    deferred: list[tuple[str, int]] = []
    for dim, actual in zip(dims, shape):
        if dim == "_":
            continue
        if dim.isdigit():
            if actual != int(dim):
                raise ContractError(
                    f"{fname}: {where} dimension is {actual}, contract requires {dim}"
                )
        elif dim.isidentifier():
            bound = binding.setdefault(dim, actual)
            if bound != actual:
                raise ContractError(
                    f"{fname}: {where} dimension {dim}={actual} conflicts "
                    f"with earlier binding {dim}={bound}"
                )
        else:
            # Arithmetic over symbols: evaluate once all inputs bound.
            deferred.append((dim, actual))
    return deferred


def _eval_deferred(
    deferred: Sequence[tuple[str, int]],
    binding: dict[str, int],
    *,
    fname: str,
) -> None:
    for expr, actual in deferred:
        try:
            expected = eval_shape_expr(expr, binding)
        except Exception as exc:
            raise ContractError(
                f"{fname}: cannot evaluate shape expression {expr!r} "
                f"with bindings {binding}: {exc}"
            ) from exc
        if expected != actual:
            raise ContractError(
                f"{fname}: dimension is {actual}, contract expression "
                f"{expr!r} = {expected} (bindings {binding})"
            )


def _iter_arrays(args: tuple[Any, ...]) -> Iterator[np.ndarray]:
    for a in args:
        if isinstance(a, np.ndarray):
            yield a


def _check_per_item(
    dims: Sequence[str],
    value: Any,
    *,
    where: str,
    fname: str,
) -> None:
    """Validate a bracketed per-item argument (sequence or stacked array).

    Each item gets an *independent* symbol binding — ragged batches
    legitimately bind ``n`` differently per item — so only literals,
    expressions and intra-item symbol consistency are enforced.
    """
    if isinstance(value, np.ndarray):
        if value.ndim != len(dims) + 1:
            raise ContractError(
                f"{fname}: {where} is a stacked array with {value.ndim} "
                f"dimension(s) {value.shape}, per-item contract expects "
                f"{len(dims) + 1} (batch axis + {','.join(dims)})"
            )
        binding: dict[str, int] = {}
        deferred = _check_dims(
            dims, value.shape[1:], binding, where=f"{where} items", fname=fname
        )
        _eval_deferred(deferred, binding, fname=fname)
        return
    for i, item in enumerate(value):
        if not isinstance(item, np.ndarray):
            continue
        item_binding: dict[str, int] = {}
        deferred = _check_dims(
            dims,
            item.shape,
            item_binding,
            where=f"{where} item {i}",
            fname=fname,
        )
        _eval_deferred(deferred, item_binding, fname=fname)


def _is_sequence_arg(value: Any) -> bool:
    return isinstance(value, (list, tuple))


def _shape_wrapper(spec: str, fn: F, *, force: bool = False) -> F:
    import functools

    parsed = parse_shape_spec(spec)
    fname = getattr(fn, "__qualname__", repr(fn))
    has_per_item = any(a.per_item for a in parsed.args)
    plain_specs = [a.dims for a in parsed.args if not a.per_item]
    out_dims = parsed.out_dims

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not (_ENABLED or force):
            return fn(*args, **kwargs)
        binding: dict[str, int] = {}
        deferred: list[tuple[str, int]] = []
        if has_per_item:
            # Generalized left-to-right matching: plain specs consume
            # the next ndarray positional, per-item specs the next
            # sequence (or stacked-ndarray) positional.
            cursor = 0
            for spec_i, arg_spec in enumerate(parsed.args):
                match = None
                while cursor < len(args):
                    candidate = args[cursor]
                    cursor += 1
                    if arg_spec.per_item and (
                        _is_sequence_arg(candidate)
                        or isinstance(candidate, np.ndarray)
                    ):
                        match = candidate
                        break
                    if not arg_spec.per_item and isinstance(
                        candidate, np.ndarray
                    ):
                        match = candidate
                        break
                if match is None:
                    raise ContractError(
                        f"{fname}: contract declares {len(parsed.args)} array "
                        f"argument(s), call supplied no match for spec "
                        f"{spec_i} ({'per-item ' if arg_spec.per_item else ''}"
                        f"{','.join(arg_spec.dims)})"
                    )
                if arg_spec.per_item:
                    _check_per_item(
                        arg_spec.dims,
                        match,
                        where=f"argument {spec_i}",
                        fname=fname,
                    )
                else:
                    deferred += _check_dims(
                        arg_spec.dims,
                        match.shape,
                        binding,
                        where=f"array argument {spec_i}",
                        fname=fname,
                    )
        else:
            arrays = list(_iter_arrays(args))
            if len(arrays) < len(plain_specs):
                raise ContractError(
                    f"{fname}: contract declares {len(plain_specs)} array "
                    f"argument(s), call supplied {len(arrays)}"
                )
            for i, (dims, arr) in enumerate(zip(plain_specs, arrays)):
                deferred += _check_dims(
                    dims, arr.shape, binding, where=f"array argument {i}", fname=fname
                )
        _eval_deferred(deferred, binding, fname=fname)
        result = fn(*args, **kwargs)
        if out_dims is not None and isinstance(result, np.ndarray):
            out_deferred = _check_dims(
                out_dims, result.shape, binding, where="return value", fname=fname
            )
            _eval_deferred(out_deferred, binding, fname=fname)
        return result

    return wrapper  # type: ignore[return-value]


def _dtype_wrapper(
    arg_dtypes: tuple[Any, ...], out: Any, fn: F, *, force: bool = False
) -> F:
    import functools

    fname = getattr(fn, "__qualname__", repr(fn))
    expected = tuple(np.dtype(d) if d is not None else None for d in arg_dtypes)
    out_dtype = np.dtype(out) if out is not None else None

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not (_ENABLED or force):
            return fn(*args, **kwargs)
        arrays = list(_iter_arrays(args))
        for i, (want, arr) in enumerate(zip(expected, arrays)):
            if want is not None and arr.dtype != want:
                raise ContractError(
                    f"{fname}: array argument {i} has dtype {arr.dtype}, "
                    f"contract requires {want}"
                )
        result = fn(*args, **kwargs)
        if out_dtype is not None and isinstance(result, np.ndarray):
            if result.dtype != out_dtype:
                raise ContractError(
                    f"{fname}: return value has dtype {result.dtype}, "
                    f"contract requires {out_dtype}"
                )
        return result

    return wrapper  # type: ignore[return-value]


# ----------------------------------------------------------------------
# public decorators
# ----------------------------------------------------------------------
def shapes(spec: str) -> Callable[[F], F]:
    """Declare a shape contract; no-op unless ``REPRO_CONTRACTS`` is set.

    See the module docstring for the mini-language.  When checking is
    disabled at decoration time the function is returned *unchanged*.
    """
    parse_shape_spec(spec)  # fail fast on malformed specs even when disabled

    def decorate(fn: F) -> F:
        if not _ENABLED:
            return fn
        return _shape_wrapper(spec, fn)

    return decorate


def dtypes(*arg_dtypes: Any, out: Any = None) -> Callable[[F], F]:
    """Declare dtypes for consecutive ndarray positional args (and return).

    ``None`` entries skip an array.  When checking is disabled at
    decoration time the function is returned *unchanged*.
    """

    def decorate(fn: F) -> F:
        if not _ENABLED:
            return fn
        return _dtype_wrapper(arg_dtypes, out, fn)

    return decorate


def checked(
    fn: Callable[..., Any],
    *,
    shape: str | None = None,
    arg_dtypes: tuple[Any, ...] = (),
    out: Any = None,
) -> Callable[..., Any]:
    """Build an *always-on* contract wrapper around ``fn``.

    Unlike the decorators, this validates regardless of the global
    toggle — intended for tests and debugging sessions.
    """
    wrapped = fn
    if arg_dtypes or out is not None:
        wrapped = _dtype_wrapper(tuple(arg_dtypes), out, wrapped, force=True)
    if shape is not None:
        wrapped = _shape_wrapper(shape, wrapped, force=True)
    return wrapped
