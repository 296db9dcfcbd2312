"""Monte-Carlo experiment runner.

Small utility for experiments that repeat a trial function over seeded
RNGs and aggregate scalar metrics -- keeps seeding policy (independent
spawned streams) and aggregation consistent across the experiment
modules.

Trials are embarrassingly parallel: every trial gets its own stream
spawned from one root ``SeedSequence``, so the runner can hand
contiguous chunks of the stream list to a process pool and reassemble
the results in trial order.  A parallel run is bit-identical to a
serial run with the same seed -- worker count only changes wall-clock
time, never values.

Fault tolerance: long sweeps die mid-flight (OOM-killed workers, hung
BLAS calls, transient node failures), so the runner treats a *chunk*
as the unit of recovery.  A chunk that raises, crashes its worker, or
exceeds the wall-clock timeout is retried with exponential backoff --
re-running the same seed list, so a retried run stays bit-identical to
an undisturbed one.  When the retry budget is exhausted the runner
cancels sibling futures, terminates the pool, and raises
:class:`ChunkError` naming the chunk, its trial range, and the attempt
count; per-trial failures inside a chunk surface as
:class:`TrialError` with the offending trial index.  Retry/timeout
events are counted in :mod:`repro.perf` (``mc.*`` counters in the
``REPRO_PERF=1`` report), and every recovery path is provable on
demand via the deterministic fault harness in :mod:`repro.sim.faults`.

Knobs (field first, environment fallback): ``max_retries`` /
``REPRO_RETRIES`` (extra attempts per chunk, default 0), ``timeout_s``
/ ``REPRO_TIMEOUT_S`` (per-chunk wall clock, parallel path only --
a single-process run cannot preempt itself), ``backoff_s`` /
``REPRO_BACKOFF_S`` (base of the exponential inter-attempt sleep).
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import perf
from repro.sim import faults

__all__ = [
    "ChunkError",
    "MonteCarlo",
    "SEED_BOUND",
    "TrialError",
    "TrialStats",
    "resolve_backoff_s",
    "resolve_retries",
    "resolve_timeout_s",
    "resolve_workers",
    "validate_bounds",
]

#: Exclusive upper bound for user-supplied seeds: one 64-bit entropy
#: word.  ``numpy.random.SeedSequence`` would accept arbitrarily large
#: non-negative integers, but artifacts, manifests and CLI flags store
#: seeds as plain integers that must round-trip through JSON and shell
#: history unambiguously, so the public contract pins one word.
SEED_BOUND: int = 2**64

#: One trial: rng in, named scalar metrics out.
Trial = Callable[[np.random.Generator], dict[str, float]]

#: Exponential backoff is capped at ``backoff_s * 2**_BACKOFF_CAP_EXP``.
_BACKOFF_CAP_EXP = 6


class TrialError(RuntimeError):
    """One trial failed; carries the global trial index and attempt.

    Constructed with positional args only so instances survive the
    pickle round-trip out of pool workers.
    """

    def __init__(self, trial_index: int, attempt: int, detail: str) -> None:
        super().__init__(trial_index, attempt, detail)
        self.trial_index = trial_index
        self.attempt = attempt
        self.detail = detail

    def __str__(self) -> str:
        return (
            f"trial {self.trial_index} failed on attempt {self.attempt}: "
            f"{self.detail}"
        )


class ChunkError(RuntimeError):
    """A chunk exhausted its retry budget; names chunk, trials, attempts."""

    def __init__(
        self, chunk_index: int, trial_start: int, trial_stop: int,
        attempts: int, detail: str,
    ) -> None:
        super().__init__(chunk_index, trial_start, trial_stop, attempts, detail)
        self.chunk_index = chunk_index
        self.trial_start = trial_start
        self.trial_stop = trial_stop
        self.attempts = attempts
        self.detail = detail

    def __str__(self) -> str:
        return (
            f"chunk {self.chunk_index} (trials {self.trial_start}.."
            f"{self.trial_stop - 1}) failed after {self.attempts} "
            f"attempt(s): {self.detail}"
        )


def validate_bounds(
    *,
    n_trials: int | None = None,
    n_workers: int | None = None,
    max_retries: int | None = None,
    timeout_s: float | None = None,
    backoff_s: float | None = None,
    seed: int | None = None,
    where: str = "",
) -> None:
    """Validate the shared count/worker/robustness knobs in one place.

    ``n_trials`` covers every repeat-count style parameter (trials,
    traces, packets, locations, ...); ``n_workers`` is the pool size;
    ``max_retries``/``timeout_s``/``backoff_s`` are the fault-tolerance
    knobs; ``seed`` must satisfy ``0 <= seed < 2**64``
    (:data:`SEED_BOUND`).  ``None`` means "not supplied" and is always
    accepted.  ``where`` names the caller in the error message.
    """
    ctx = f" in {where}" if where else ""
    if seed is not None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed{ctx} must be an int, got {seed!r}")
        if not 0 <= seed < SEED_BOUND:
            raise ValueError(
                f"seed{ctx} must satisfy 0 <= seed < 2**64, got {seed}"
            )
    if n_trials is not None:
        if not isinstance(n_trials, int) or isinstance(n_trials, bool):
            raise ValueError(f"count{ctx} must be an int, got {n_trials!r}")
        if n_trials < 1:
            raise ValueError(f"count{ctx} must be >= 1, got {n_trials}")
    if n_workers is not None:
        if not isinstance(n_workers, int) or isinstance(n_workers, bool):
            raise ValueError(f"n_workers{ctx} must be an int, got {n_workers!r}")
        if n_workers < 1:
            raise ValueError(f"n_workers{ctx} must be >= 1, got {n_workers}")
    if max_retries is not None:
        if not isinstance(max_retries, int) or isinstance(max_retries, bool):
            raise ValueError(
                f"max_retries{ctx} must be an int, got {max_retries!r}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries{ctx} must be >= 0, got {max_retries}")
    if timeout_s is not None:
        if isinstance(timeout_s, bool) or not isinstance(timeout_s, (int, float)):
            raise ValueError(f"timeout_s{ctx} must be a number, got {timeout_s!r}")
        if not timeout_s > 0:
            raise ValueError(f"timeout_s{ctx} must be > 0, got {timeout_s}")
    if backoff_s is not None:
        if isinstance(backoff_s, bool) or not isinstance(backoff_s, (int, float)):
            raise ValueError(f"backoff_s{ctx} must be a number, got {backoff_s!r}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s{ctx} must be >= 0, got {backoff_s}")


def resolve_workers(n_workers: int | None = None) -> int:
    """Resolve the shared worker-count knob.

    An explicit argument wins and is validated strictly (``0``/``-3``
    raise instead of being silently clamped to 1).  Otherwise the
    ``REPRO_WORKERS`` environment variable (set by the CLI's
    ``--workers`` flag) is consulted; a value that does not parse as a
    positive integer is a *misconfiguration*, reported with a
    ``RuntimeWarning`` before falling back to 1 worker.
    """
    if n_workers is not None:
        validate_bounds(n_workers=n_workers, where="resolve_workers")
        return n_workers
    raw = os.environ.get("REPRO_WORKERS", "")
    if not raw:
        return 1
    try:
        value = int(raw)
        validate_bounds(n_workers=value, where="REPRO_WORKERS")
    except ValueError as exc:
        warnings.warn(
            f"ignoring invalid REPRO_WORKERS={raw!r} ({exc}); using 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return value


def resolve_retries(max_retries: int | None = None) -> int:
    """Per-chunk retry budget: explicit arg, else ``REPRO_RETRIES``, else 0."""
    if max_retries is not None:
        validate_bounds(max_retries=max_retries, where="resolve_retries")
        return max_retries
    raw = os.environ.get("REPRO_RETRIES", "")
    if not raw:
        return 0
    try:
        value = int(raw)
        validate_bounds(max_retries=value, where="REPRO_RETRIES")
    except ValueError as exc:
        warnings.warn(
            f"ignoring invalid REPRO_RETRIES={raw!r} ({exc}); using 0 retries",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0
    return value


def resolve_timeout_s(timeout_s: float | None = None) -> float | None:
    """Per-chunk timeout: explicit arg, else ``REPRO_TIMEOUT_S``, else none."""
    if timeout_s is not None:
        validate_bounds(timeout_s=timeout_s, where="resolve_timeout_s")
        return float(timeout_s)
    raw = os.environ.get("REPRO_TIMEOUT_S", "")
    if not raw:
        return None
    try:
        value = float(raw)
        validate_bounds(timeout_s=value, where="REPRO_TIMEOUT_S")
    except ValueError as exc:
        warnings.warn(
            f"ignoring invalid REPRO_TIMEOUT_S={raw!r} ({exc}); no timeout",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return value


def resolve_backoff_s(backoff_s: float | None = None) -> float:
    """Backoff base: explicit arg, else ``REPRO_BACKOFF_S``, else 0.05 s."""
    if backoff_s is not None:
        validate_bounds(backoff_s=backoff_s, where="resolve_backoff_s")
        return float(backoff_s)
    raw = os.environ.get("REPRO_BACKOFF_S", "")
    if not raw:
        return 0.05
    try:
        value = float(raw)
        validate_bounds(backoff_s=value, where="REPRO_BACKOFF_S")
    except ValueError as exc:
        warnings.warn(
            f"ignoring invalid REPRO_BACKOFF_S={raw!r} ({exc}); using 0.05 s",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.05
    return value


@dataclass
class TrialStats:
    """Aggregate of one scalar metric across trials."""

    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean()) if self.values.size else float("nan")

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1)) if self.values.size > 1 else 0.0

    @property
    def n(self) -> int:
        return int(self.values.size)

    def ci95_halfwidth(self) -> float:
        """95% confidence half-width, Student-t for small n.

        Uses the t quantile at ``n - 1`` degrees of freedom, which the
        normal approximation (1.96) understates badly for the small
        trial counts quick runs use; the two agree asymptotically.
        """
        if self.values.size < 2:
            return 0.0
        from scipy import stats as sp_stats

        t = float(sp_stats.t.ppf(0.975, self.values.size - 1))
        return float(t * self.std / np.sqrt(self.values.size))


def _run_chunk(
    trial: Trial,
    seeds: list[np.random.SeedSequence],
    chunk_index: int = 0,
    start: int = 0,
    attempt: int = 1,
) -> list[dict[str, float]]:
    """Run a contiguous chunk of trials (also the worker entry point).

    A trial exception is re-raised as :class:`TrialError` carrying the
    *global* trial index, so a failure three chunks deep in a pool
    still names the trial that caused it.
    """
    faults.check("chunk", index=chunk_index, attempt=attempt)
    out: list[dict[str, float]] = []
    for offset, seed_seq in enumerate(seeds):
        trial_index = start + offset
        try:
            faults.check("trial", index=trial_index, attempt=attempt)
            out.append(trial(np.random.default_rng(seed_seq)))
        except Exception as exc:
            raise TrialError(
                trial_index, attempt, f"{type(exc).__name__}: {exc}"
            ) from exc
    return out


def _sleep_backoff(backoff_s: float, attempt: int) -> None:
    if backoff_s > 0:
        time.sleep(backoff_s * 2 ** min(attempt - 1, _BACKOFF_CAP_EXP))


def _shutdown_pool(pool: ProcessPoolExecutor, *, force: bool) -> None:
    """Shut a pool down; with ``force`` also terminate hung workers."""
    pool.shutdown(wait=not force, cancel_futures=True)
    if force:
        processes: Any = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            proc.terminate()
        for proc in list(processes.values()):
            proc.join(timeout=5.0)


@dataclass
class MonteCarlo:
    """Run ``trial(rng) -> dict[str, float]`` over independent streams.

    Seeds are spawned from one root ``SeedSequence`` so trials are
    independent yet the whole run is reproducible from ``seed``.

    ``n_workers`` > 1 fans contiguous chunks of trials out to a process
    pool (``None`` defers to :func:`resolve_workers`, i.e. the
    ``REPRO_WORKERS`` knob).  Results are reassembled in trial order,
    so ``TrialStats.values`` is bit-identical for every worker count;
    ``trial`` must then be picklable (a module-level function).

    ``max_retries``/``timeout_s``/``backoff_s`` configure per-chunk
    fault tolerance (``None`` defers to ``REPRO_RETRIES`` /
    ``REPRO_TIMEOUT_S`` / ``REPRO_BACKOFF_S``); a retried chunk re-runs
    the identical seed list, so recovery never changes values.  The
    timeout applies to the pooled path only: a serial run cannot
    preempt its own trial.
    """

    n_trials: int
    seed: int = 0
    n_workers: int | None = None
    max_retries: int | None = None
    timeout_s: float | None = None
    backoff_s: float | None = None

    def run(self, trial: Trial) -> dict[str, TrialStats]:
        validate_bounds(n_trials=self.n_trials, where="MonteCarlo")
        retries = resolve_retries(self.max_retries)
        timeout_s = resolve_timeout_s(self.timeout_s)
        backoff_s = resolve_backoff_s(self.backoff_s)
        root = np.random.SeedSequence(self.seed)
        seeds = root.spawn(self.n_trials)
        workers = min(resolve_workers(self.n_workers), self.n_trials)
        if workers <= 1:
            results = self._run_serial(trial, seeds, retries, backoff_s)
        else:
            results = self._run_parallel(
                trial, seeds, workers, retries, timeout_s, backoff_s
            )
        return _collect(results)

    # -- serial ---------------------------------------------------------
    def _run_serial(
        self,
        trial: Trial,
        seeds: list[np.random.SeedSequence],
        retries: int,
        backoff_s: float,
    ) -> list[dict[str, float]]:
        attempt = 0
        while True:
            attempt += 1
            try:
                return _run_chunk(trial, seeds, 0, 0, attempt)
            except Exception as exc:
                if attempt > retries:
                    raise ChunkError(
                        0, 0, len(seeds), attempt,
                        f"{type(exc).__name__}: {exc}",
                    ) from exc
                perf.count("mc.chunk_retries")
                _sleep_backoff(backoff_s, attempt)

    # -- parallel -------------------------------------------------------
    def _run_parallel(
        self,
        trial: Trial,
        seeds: list[np.random.SeedSequence],
        workers: int,
        retries: int,
        timeout_s: float | None,
        backoff_s: float,
    ) -> list[dict[str, float]]:
        bounds = np.linspace(0, self.n_trials, workers + 1).astype(int)
        chunks: dict[int, tuple[int, list[np.random.SeedSequence]]] = {}
        for chunk_index, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            if b > a:
                chunks[chunk_index] = (int(a), seeds[a:b])
        results: dict[int, list[dict[str, float]]] = {}
        attempts = dict.fromkeys(chunks, 0)
        pending = dict(chunks)
        while pending:
            wave = pending
            pending = {}
            pool = ProcessPoolExecutor(max_workers=min(workers, len(wave)))
            futures: dict[int, Future[list[dict[str, float]]]] = {
                ci: pool.submit(
                    _run_chunk, trial, chunk_seeds, ci, start, attempts[ci] + 1
                )
                for ci, (start, chunk_seeds) in wave.items()
            }
            deadline = None if timeout_s is None else time.monotonic() + timeout_s
            hung = False
            failures: dict[int, BaseException] = {}
            for ci, future in futures.items():
                try:
                    if deadline is None:
                        results[ci] = future.result()
                    else:
                        remaining = max(deadline - time.monotonic(), 0.0)
                        results[ci] = future.result(timeout=remaining)
                except Exception as exc:
                    if isinstance(exc, FuturesTimeoutError):
                        hung = True
                        perf.count("mc.chunk_timeouts")
                        detail = f"timed out after {timeout_s} s"
                    elif isinstance(exc, BrokenExecutor):
                        perf.count("mc.worker_crashes")
                        detail = f"worker crashed: {type(exc).__name__}: {exc}"
                    else:
                        detail = f"{type(exc).__name__}: {exc}"
                    tried = attempts[ci] + 1
                    if tried > retries:
                        # Fatal: cancel unstarted siblings, kill the
                        # rest, and surface full chunk/trial context.
                        _shutdown_pool(pool, force=True)
                        start, chunk_seeds = wave[ci]
                        raise ChunkError(
                            ci, start, start + len(chunk_seeds), tried, detail
                        ) from exc
                    failures[ci] = exc
            _shutdown_pool(pool, force=hung)
            for ci in failures:
                attempts[ci] += 1
                perf.count("mc.chunk_retries")
                pending[ci] = wave[ci]
            if pending:
                _sleep_backoff(backoff_s, max(attempts[ci] for ci in pending))
        return [metrics for ci in sorted(results) for metrics in results[ci]]


def _collect(results: list[dict[str, float]]) -> dict[str, TrialStats]:
    """Aggregate per-trial metric dicts, rejecting misaligned key sets.

    Silently merging trials that disagree on their metric keys would
    produce per-key ``TrialStats`` with different ``n`` -- means over
    different trial subsets presented as one population.  The first
    trial defines the contract; any deviation names the trial and the
    key diff.
    """
    collected: dict[str, list[float]] = {}
    first_keys: set[str] = set()
    for index, metrics in enumerate(results):
        keys = set(metrics)
        if index == 0:
            first_keys = keys
        elif keys != first_keys:
            missing = ", ".join(sorted(first_keys - keys)) or "<none>"
            extra = ", ".join(sorted(keys - first_keys)) or "<none>"
            raise ValueError(
                f"trial {index} returned a different metric key set than "
                f"trial 0 (missing: {missing}; unexpected: {extra}); every "
                f"trial must return the same metrics"
            )
        for key, value in metrics.items():
            collected.setdefault(key, []).append(float(value))
    return {k: TrialStats(np.array(v)) for k, v in collected.items()}
