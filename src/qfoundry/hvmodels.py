"""Deterministic and sampled hidden-variable models.

Three models live here:

* the local half-plane polarization model: :func:`poincare_outcome`
  pre-assigns the +-1 outcome of a transverse polarization measurement at a
  setting from the azimuth 2 pi lambda of the polarization vector, for a
  hidden variable lambda uniform on [0, 1];
* the exhaustive local-hidden-variable table over three polarizer settings
  (:class:`LocalHVTable`), whose same-outcome probability is bounded below
  by 1/3 for every weighting of the eight deterministic rows;
* a crypto-nonlocal model (:func:`leggett_outcomes`,
  :func:`leggett_expectations`) in which each outcome may depend on both
  analyzer settings but not on the remote outcome.  The hidden variable is
  uniform on [0, 1]; outcome A is +1 on the closed interval
  [0, lambda_A] with lambda_A = (1 + u.a)/2, outcome B is +1 on the closed
  interval [x1, x2] with

      x1 = (1 + u.a - v.b + a.b)/4,     x2 = (3 + u.a + v.b + a.b)/4.

  Under the uniform density this reproduces Malus' law, <A> = u.a and
  <B> = v.b, together with <AB> = -a.b.  The construction is only
  self-consistent when |a.b + u.a| <= 1 - v.b and |a.b - u.a| <= 1 + v.b;
  these two branches are equivalent to 0 <= x1 <= lambda_A <= x2 <= 1, and
  hold for every a, b in the plane perpendicular to u and v.  Outside that
  region :class:`ModelInconsistentError` is raised.

The outcome rules :func:`poincare_outcome` and :func:`leggett_outcomes` take
arrays of lambda, refuse any lambda outside [0, 1] (NaN included), and are
the models' only definitions; the tests use the latter as the sampler's
oracle, evaluated on the same lambda stream.
Interval ties (lambda exactly at a threshold) resolve to the first listed
case, i.e. toward +1; the tie set has measure zero under the uniform density
and probability at most 2^-32 per draw on the sampler's grid.  The half-plane
rule's ties, exact at quarter turns of lambda, give +1 as well.

The Monte Carlo path of :func:`leggett_expectations` draws the hidden
variable as lambda = k / 2^32 for a uniform 32-bit k, two per raw 64-bit
word of the PCG64 bit generator, in fixed chunks of ``SAMPLE_CHUNK`` = 2^17
values: 2^16 raw words (512 KB) and a reused 128 KB boolean mask.  The three
thresholds become integer cut-offs on k, so three comparisons count
lambda <= lambda_A, lambda < x1 and lambda <= x2 exactly; the +1 counts of
A, B and AB follow from these by exact interval algebra.  A running shard
holds one chunk, about 0.6 MB, for any sample count.  Chunked draws continue
the same random stream and the counts are exact, so the results do not
depend on the chunk size.  The sample count fixes the substreams (shards):
one per ``SHARD_SAMPLES`` = 2^20 draws, at most ``MAX_SHARDS``.  Shards draw
on separate threads (:func:`parallel_map`) and their integer counts are
summed, so the results do not depend on the thread count either.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from . import ModelInconsistentError
from .qcore import MeasurementSetting

if TYPE_CHECKING:
    from fractions import Fraction

CONSISTENCY_ATOL = 1e-12
# lambdas drawn and reduced at a time by the Monte Carlo sampler; even, so
# that every chunk but the last uses both halves of each raw word
SAMPLE_CHUNK = 1 << 17
# the sampler's lambda is k / 2^32 for a uniform 32-bit k
_K_RANGE = 1 << 32
# draws per default substream, and the most substreams a sample count derives
SHARD_SAMPLES = 1 << 20
MAX_SHARDS = 256

# Table of all 2^3 deterministic single-photon assignments over the three
# polarizer settings (0, +2pi/3, -2pi/3); +1 = pass, -1 = blocked.  Row
# order matches the enumeration with "pass everywhere" first.
LOCAL_HV_ROWS: tuple[tuple[int, int, int], ...] = tuple(itertools.product((+1, -1), repeat=3))

# The three randomly chosen mismatched setting pairs (a1 b2, a2 b3, a3 b1).
SETTING_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (1, 2), (2, 0))


def row_same_fraction(row: tuple[int, int, int]) -> Fraction:
    """Fraction of the three mismatched setting pairs with equal outcomes."""
    from fractions import Fraction  # here, so that the Leggett model mode never loads it

    hits = sum(1 for i, j in SETTING_PAIRS if row[i] == row[j])
    return Fraction(hits, len(SETTING_PAIRS))


@dataclass(frozen=True)
class LocalHVTable:
    """Weights over the eight deterministic assignment rows."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size != len(LOCAL_HV_ROWS):
            raise ValueError(f"expected {len(LOCAL_HV_ROWS)} weights, got {w.size}")
        if not np.isfinite(w).all():
            raise ValueError(f"non-finite weights {w.tolist()!r}")
        if w.min() < -1e-12:
            raise ValueError(f"weights must be nonnegative, got min {float(w.min())!r}")
        if w.max() > 1.0 + 1e-12:  # refused before the sum, which may overflow
            raise ValueError(f"weights must be at most 1, got max {float(w.max())!r}")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls) -> "LocalHVTable":
        return cls(np.full(len(LOCAL_HV_ROWS), 1.0 / len(LOCAL_HV_ROWS)))


def lhv_same_probability(table: LocalHVTable) -> float:
    """Weighted probability that both photons give the same outcome."""
    fractions = np.array([float(row_same_fraction(r)) for r in LOCAL_HV_ROWS])
    return float(table.weights @ fractions)


def lhv_minimum_same_probability() -> Fraction:
    """Exact minimum of the same-outcome probability over the weight simplex.

    The probability is affine in the weights, so the minimum over the
    simplex is attained at a vertex; it suffices to enumerate the rows.
    """
    return min(row_same_fraction(row) for row in LOCAL_HV_ROWS)


@dataclass(frozen=True)
class LeggettModelParams:
    """Initial polarizations (u, v) and analyzer settings (a, b)."""

    u: MeasurementSetting
    v: MeasurementSetting
    a: MeasurementSetting
    b: MeasurementSetting

    @property
    def ua(self) -> float:
        return self.u.dot(self.a)

    @property
    def vb(self) -> float:
        return self.v.dot(self.b)

    @property
    def ab(self) -> float:
        return self.a.dot(self.b)


def leggett_thresholds(params: LeggettModelParams) -> tuple[float, float, float]:
    """(lambda_A, x1, x2) interval endpoints of the outcome rules."""
    ua, vb, ab = params.ua, params.vb, params.ab
    lambda_a = 0.5 * (1.0 + ua)
    x1 = 0.25 * (1.0 + ua - vb + ab)
    x2 = 0.25 * (3.0 + ua + vb + ab)
    return lambda_a, x1, x2


def leggett_is_consistent(params: LeggettModelParams) -> bool:
    """Whether the interval construction is valid for these settings.

    Checks |a.b + u.a| <= 1 - v.b and |a.b - u.a| <= 1 + v.b, which is
    equivalent to 0 <= x1 <= lambda_A <= x2 <= 1.
    """
    ua, vb, ab = params.ua, params.vb, params.ab
    return abs(ab + ua) <= 1.0 - vb + CONSISTENCY_ATOL and abs(ab - ua) <= 1.0 + vb + CONSISTENCY_ATOL


def _require_consistent(params: LeggettModelParams) -> None:
    if not leggett_is_consistent(params):
        ua, vb, ab = params.ua, params.vb, params.ab
        raise ModelInconsistentError(
            "settings violate the model consistency condition "
            f"|a.b +- u.a| <= 1 -+ v.b (u.a = {ua:.6g}, v.b = {vb:.6g}, "
            f"a.b = {ab:.6g})"
        )


def _hidden_variable(lam) -> np.ndarray:
    """``lam`` as a float array, refused unless every value lies in [0, 1] (NaN is outside too)."""
    lam = np.asarray(lam, dtype=float)
    outside = ~((lam >= 0.0) & (lam <= 1.0))
    if outside.any():
        raise ValueError(f"lambda = {float(lam[outside][0])!r} outside [0, 1]")
    return lam


def poincare_outcome(setting: MeasurementSetting, lam) -> np.ndarray:
    """Local rule: +-1 integer outcomes of ``lam``'s shape at one setting.

    Both photons carry the hidden vector w = (cos 2 pi lam, sin 2 pi lam, 0);
    the outcome is the sign of w.setting, and ties give +1: at y-hat, +1 on
    the closed upper half-plane 2 pi lam in [0, pi] and -1 on (pi, 2 pi); lam = 1
    gives the outcome of lam = 0.  w turns (cos, sin) of the rest by whole quarter
    turns, so a tie at a multiple of pi/2 does not hang on the rounding of pi.
    """
    turns, rest = np.divmod(4.0 * _hidden_variable(lam), 1.0)
    c, s = np.cos(0.5 * np.pi * rest), np.sin(0.5 * np.pi * rest)
    quarter = turns.astype(int) % 4
    x, y, _ = setting.direction
    w_x, w_y = np.choose(quarter, (c, -s, -c, s)), np.choose(quarter, (s, c, -s, -c))
    return np.where(w_x * x + w_y * y >= 0.0, 1, -1)


def leggett_outcomes(params: LeggettModelParams, lam) -> tuple[np.ndarray, np.ndarray]:
    """Crypto-nonlocal rule: +-1 integer outcomes (A, B), each of ``lam``'s shape.

    A = +1 on [0, lambda_A] and B = +1 on [x1, x2] (:func:`leggett_thresholds`).
    """
    lam = _hidden_variable(lam)
    _require_consistent(params)
    lambda_a, x1, x2 = leggett_thresholds(params)
    return np.where(lam <= lambda_a, 1, -1), np.where((x1 <= lam) & (lam <= x2), 1, -1)


class LeggettExpectations(NamedTuple):
    """Single- and two-party means with standard errors; stderr and n_samples are 0 when analytic."""

    mean_a: float
    mean_b: float
    mean_ab: float
    stderr_a: float
    stderr_b: float
    stderr_ab: float
    n_samples: int


def _binary_stderr(mean: float, n: int) -> float:
    return float(np.sqrt(max(0.0, 1.0 - mean * mean) / n))


def pool_size(tasks: int) -> int:
    """Threads for ``tasks`` independent jobs: one per usable CPU, at most one per job."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(tasks, cpus))


def parallel_map(fn: Callable, *iterables: Iterable) -> list:
    """``[fn(*args) for args in zip(*iterables)]`` on ``pool_size(n)`` threads.

    The calling thread is one worker, so a single job starts no thread.
    Workers take the next job index under a lock; results keep the input
    order.  After a job raises, no worker starts a new one, and once every
    thread has joined the exception of the lowest failed index is re-raised,
    as a serial loop would.  Threads pay off for jobs that spend their time
    in numpy calls that release the GIL.
    """
    jobs = list(zip(*iterables))
    results = [None] * len(jobs)
    failures: list[tuple[int, BaseException]] = []
    indices = iter(range(len(jobs)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                index = None if failures else next(indices, None)
            if index is None:
                return
            try:
                results[index] = fn(*jobs[index])
            except BaseException as exc:
                with lock:
                    failures.append((index, exc))

    threads = [threading.Thread(target=work) for _ in range(pool_size(len(jobs)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _cutoffs(lambda_a: float, x1: float, x2: float) -> tuple[int, int, int]:
    """Cut-offs c with k < c exactly when lambda = k / 2^32 is <= lambda_A, < x1 and <= x2.

    t * 2^32 is exact in float64, so lambda <= t is k <= floor(t * 2^32) and
    lambda < t is k < ceil(t * 2^32).  Each cut-off is clamped to [0, 2^32],
    and 2^32 holds for every uint32 k.
    """
    cutoffs = (math.floor(lambda_a * _K_RANGE) + 1, math.ceil(x1 * _K_RANGE), math.floor(x2 * _K_RANGE) + 1)
    return tuple(min(max(c, 0), _K_RANGE) for c in cutoffs)


def _count_below(k: np.ndarray, cutoff: int, hits: np.ndarray) -> int:
    """Number of entries of the uint32 array ``k`` below ``cutoff``, with ``hits`` as scratch."""
    if cutoff == _K_RANGE:
        return k.size
    return int(np.count_nonzero(np.less(k, cutoff, out=hits)))


def _shard_counts(
    rng: np.random.Generator, count: int, lambda_a: float, x1: float, x2: float
) -> tuple[int, int, int]:
    """Counts of lambda <= lambda_A, lambda < x1 and lambda <= x2 over ``count`` draws.

    Each 32-bit half of a raw word gives one lambda = k / 2^32, so ``count``
    draws use ceil(count / 2) words; an odd last chunk drops the high half of its last word.
    """
    cutoffs = _cutoffs(lambda_a, x1, x2)
    totals = [0, 0, 0]
    mask = np.empty(min(SAMPLE_CHUNK, count), dtype=bool)
    for start in range(0, count, SAMPLE_CHUNK):
        size = min(SAMPLE_CHUNK, count - start)
        words = rng.bit_generator.random_raw((size + 1) // 2)
        if size % 2:
            # copy the low half into the high half, so dropping either keeps the low half on any byte order
            words[-1] = (words[-1] & 0xFFFF_FFFF) * 0x1_0000_0001
        k, hits = words.view(np.uint32)[:size], mask[:size]
        for i, cutoff in enumerate(cutoffs):
            totals[i] += _count_below(k, cutoff, hits)
        del words, k  # free this chunk's words before the next draw allocates
    return tuple(totals)


def leggett_expectations(
    params: LeggettModelParams,
    method: str = "analytic",
    n_samples: int = 1_000_000,
    seed: int = 0,
    shards: int | None = None,
) -> LeggettExpectations:
    """Means of A, B and AB over the uniform hidden variable.

    ``method="analytic"`` integrates the piecewise-constant outcome rules
    exactly; the results equal u.a, v.b and -a.b.  ``method="monte-carlo"``
    draws ``n_samples`` lambdas k / 2^32, two from each raw PCG64 word, split
    into ``shards`` substreams spawned from ``seed`` (one substream uses the
    seed's own stream), and reports sample means with standard errors.
    ``shards=None`` takes min(ceil(n_samples / SHARD_SAMPLES), MAX_SHARDS),
    so 10^6 samples draw one substream.  The substreams run on up to
    min(shards, usable CPUs) threads (:func:`parallel_map`); each returns
    three integer counts and the counts are summed, so the result depends
    on the seed and shard count but never on the CPU count.
    """
    _require_consistent(params)
    lambda_a, x1, x2 = leggett_thresholds(params)

    if method == "analytic":
        mean_a = 2.0 * lambda_a - 1.0
        mean_b = 2.0 * (x2 - x1) - 1.0
        # AB is -1 on [0,x1) and [lambda_A,x2), +1 on [x1,lambda_A) and [x2,1];
        # consistency guarantees the ordering x1 <= lambda_A <= x2.
        mean_ab = 2.0 * lambda_a - 2.0 * x1 - 2.0 * x2 + 1.0
        return LeggettExpectations(mean_a, mean_b, mean_ab, 0.0, 0.0, 0.0, 0)

    if method != "monte-carlo":
        raise ValueError(f"unknown method {method!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if shards is None:
        shards = min(-(-n_samples // SHARD_SAMPLES), MAX_SHARDS)
    if shards < 1:
        raise ValueError("shards must be positive")

    if shards == 1:
        generators = [np.random.default_rng(seed)]
        counts = [n_samples]
    else:
        generators = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(shards)]
        base, extra = divmod(n_samples, shards)
        counts = [base + (1 if i < extra else 0) for i in range(shards)]

    # counts of lambda <= lambda_A (that is, A = +1), lambda < x1 and lambda <= x2
    shard_counts = parallel_map(lambda rng, count: _shard_counts(rng, count, lambda_a, x1, x2), generators, counts)
    plus_a, below_x1, upto_x2 = (sum(column) for column in zip(*shard_counts))

    # The three events are half-lines of the same lambda, so any two are
    # nested and the count of their intersection is the smaller count.  That
    # gives #(x1 <= lambda <= t) = max(0, #(lambda <= t) - #(lambda < x1))
    # whatever the order of the thresholds.  AB = +1 where both outcomes are
    # +1 (both_plus) or both -1 (n - plus_a - plus_b + both_plus).
    plus_b = max(0, upto_x2 - below_x1)
    both_plus = max(0, min(plus_a, upto_x2) - below_x1)
    plus_ab = n_samples - plus_a - plus_b + 2 * both_plus
    # each outcome sum of +-1 values is (#plus) - (#minus) = 2 #plus - n
    mean_a = (2 * plus_a - n_samples) / n_samples
    mean_b = (2 * plus_b - n_samples) / n_samples
    mean_ab = (2 * plus_ab - n_samples) / n_samples
    return LeggettExpectations(
        mean_a,
        mean_b,
        mean_ab,
        _binary_stderr(mean_a, n_samples),
        _binary_stderr(mean_b, n_samples),
        _binary_stderr(mean_ab, n_samples),
        n_samples,
    )


def fibonacci_sphere(n: int = 97) -> np.ndarray:
    """Deterministic near-uniform unit vectors on the sphere, shape (n, 3)."""
    if n < 1:
        raise ValueError("n must be positive")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    points = np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)
    return points / np.linalg.norm(points, axis=1, keepdims=True)
