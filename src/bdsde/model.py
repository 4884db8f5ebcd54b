"""Time grid, spatial domain, problem coefficients, and reproducible noise.

The solver discretises a forward/backward pair on the uniform partition
t_i = i*h of [0, T], h = T/N.  Two independent Brownian drivers feed the
scheme:

    B   forward noise, one d-dimensional path per Monte Carlo sample,
        increments ``dB[i, m]`` (time-major) with coordinatewise variance h;
    W   external (backward) noise, a single l-dimensional path shared by
        every sample and every regression within a run, increments ``dW[i]``.

Increment generation is counter-based: every Gaussian coordinate owns a fixed
position in a Philox word stream keyed by (seed, stream), so any single
increment can be regenerated in isolation, bit-exactly, without materialising
the rest of the bundle.  Word w maps to ndtri(u) with u = ((w >> 11) + 0.5) *
2^-53, computed in place and clamped below 1 (see ``_fill_gaussians``), so
determinism is independent of path order, thread scheduling and worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri

__all__ = [
    "BdsdeError",
    "InvalidParameterError",
    "InvalidStartError",
    "EvaluationError",
    "ConfigError",
    "TimeGrid",
    "build_grid",
    "Domain",
    "CoefficientSet",
    "NoiseBundle",
    "sample_noise",
]


# ------------------------------- Errors ----------------------------------- #

class BdsdeError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(BdsdeError, ValueError):
    """A constructor or operation received an out-of-contract argument."""


class InvalidStartError(InvalidParameterError):
    """The forward simulation start point lies outside the open domain."""


class EvaluationError(BdsdeError, ArithmeticError):
    """A user-supplied coefficient returned a non-finite or misshapen value."""


class ConfigError(BdsdeError):
    """An experiment configuration failed to parse or validate."""


def _whole(name: str, value, lo: int, hi: float = np.inf) -> int:
    """``value`` as an int (2.0 gives 2) if it is a whole number in [lo, hi), else an error."""
    flag = isinstance(value, (bool, np.bool_))  # a flag, not a count
    try:
        whole = int(value) if not flag and np.isfinite(float(value)) else None
    except (TypeError, ValueError, OverflowError):  # a non-number, or beyond floats
        whole = None
    if whole is None or whole != value or not lo <= whole < hi:
        raise InvalidParameterError(f"{name} must be a whole number in [{lo}, {hi}), got {value!r}")
    return whole


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only."""
    a.setflags(write=False)
    return a


def _shaped(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float64 array (float64 input is not copied) if it has
    ``shape``, else an error; an int entry must match, a named entry such as
    "M" matches any length and prints as written."""
    out = np.asarray(value, dtype=np.float64)
    if len(out.shape) != len(shape) or any(
            want != got for want, got in zip(shape, out.shape) if not isinstance(want, str)):
        want = str(tuple(shape)).replace("'", "")
        raise InvalidParameterError(f"{name} must have shape {want}, got {out.shape}")
    return out


# ------------------------------ Time grid --------------------------------- #

@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform partition t_i = t_0 + i*h, i = 0..N; the horizon is times[N].

    ``build_grid`` sets t_0 = 0, ``times`` to (i*T)/N and times[N] to T
    exactly, so no time drifts by accumulated rounding and each step is h up
    to a few ulps of T.  A tail grid times[n:] keeps those times.
    """

    h: float
    times: np.ndarray

    @property
    def N(self) -> int:
        return self.times.shape[0] - 1

    def index_of(self, t: float) -> int:
        """Index i with times[i] == t up to 1e-9*h, else an error (NaN too)."""
        i = int(np.clip(np.nan_to_num(np.round((t - self.times[0]) / self.h)), 0, self.N))
        if not abs(self.times[i] - t) <= 1e-9 * self.h:
            raise InvalidParameterError(f"t={t!r} is not a grid time")
        return i


def build_grid(T: float, N: int) -> TimeGrid:
    """Uniform grid with step h = T/N.

    Raises
    ------
    InvalidParameterError
        For non-positive T or N not a whole number >= 1.
    """
    if not np.isfinite(T) or T <= 0:
        raise InvalidParameterError(f"horizon T must be positive, got {T!r}")
    N = _whole("step count N", N, 1)
    times = (np.arange(N + 1, dtype=np.float64) * float(T)) / N
    times[N] = T  # (N*T)/N can miss T by 1 ulp
    return TimeGrid(h=float(T) / N, times=_frozen(times))


# ------------------------------- Domain ----------------------------------- #

@dataclass(frozen=True, eq=False)
class Domain:
    """Open axis-aligned box {lower < x < upper}; R^d is the box with bounds
    -inf and +inf, so one set of box formulas serves both.  ``nearest_face``
    is the one face scan behind the exit test and the boundary shift."""

    lower: np.ndarray
    upper: np.ndarray

    @staticmethod
    def whole_space(d: int) -> "Domain":
        d = _whole("dimension d", d, 1)
        return Domain(lower=_frozen(np.full(d, -np.inf)), upper=_frozen(np.full(d, np.inf)))

    @staticmethod
    def box(lower, upper) -> "Domain":
        lo = _shaped("lower bounds", np.atleast_1d(lower), ("d",)).copy()
        hi = _shaped("upper bounds", np.atleast_1d(upper), lo.shape).copy()
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InvalidParameterError("box bounds must be finite")
        if not (lo.size and np.all(lo < hi)):
            raise InvalidParameterError(f"need lower < upper componentwise, got {lo} vs {hi}")
        return Domain(lower=_frozen(lo), upper=_frozen(hi))

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def is_whole_space(self) -> bool:
        """All of R^d: every bound infinite, so there is no boundary to exit."""
        return bool(np.all(self.lower == -np.inf) and np.all(self.upper == np.inf))

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Strict membership in the open domain; shape (...,) bool."""
        x = np.asarray(x, dtype=np.float64)
        return np.all(x > self.lower, axis=-1) & np.all(x < self.upper, axis=-1)

    def nearest_face(self, x: np.ndarray) -> tuple:
        """Distance to the nearest face and that face's axis, shapes (...,).

        One scan over the faces (coord 0 lower, ..., coord d-1 lower,
        coord 0 upper, ...) with a strict <: the first minimal gap wins, so
        corner ties break toward the lowest coordinate index and, within a
        coordinate, toward the lower face.  The distance is negative outside
        the box and +inf for R^d; the inward normal is +-e_axis.
        """
        x = np.asarray(x, dtype=np.float64)
        faces = [(j, gaps[..., j]) for gaps in (x - self.lower, self.upper - x)
                 for j in range(self.d)]
        dist = faces[0][1]
        axis = np.zeros(dist.shape, dtype=np.intp)
        for j, gap in faces[1:]:
            if self.d > 1:  # with d = 1 every face lies on axis 0
                axis[gap < dist] = j
            dist = np.minimum(dist, gap)
        return dist, axis


# ----------------------------- Coefficients -------------------------------- #

# Vectorisation contract for the user-supplied callables (leading axis = the
# Monte Carlo sample axis of length M >= 1); CoefficientSet.eval_* is the one
# caller, handing over read-only views of array arguments and checking outputs:
#   b(x)            (M, d) -> (M, d)
#   sigma(x)        (M, d) -> (M, d, d)
#   f(t, x, y, z)   scalar t, (M, d), (M, k), (M, k, d) -> (M, k)
#   g(t, x, y, z)   scalar t, (M, d), (M, k), (M, k, d) -> (M, k, l)
#   phi(t, x)       scalar or (M,) t, (M, d) -> (M, k)

Driver = Callable[..., np.ndarray]


@dataclass(frozen=True)
class CoefficientSet:
    """Problem data (b, sigma, f, g, phi) with dimension metadata.

    ``g=None`` means the external-noise coefficient is absent (plain backward
    equation).
    """

    d: int
    k: int
    l: int
    b: Driver
    sigma: Driver
    f: Driver
    phi: Driver
    g: Optional[Driver] = None

    def __post_init__(self):
        for name in ("d", "k", "l"):
            object.__setattr__(self, name, _whole(f"dimension {name}", getattr(self, name), 1))

    def eval_b(self, x: np.ndarray) -> np.ndarray:
        return _call("b", self.b, x.shape[:-1] + (self.d,), x, x)

    def eval_sigma(self, x: np.ndarray) -> np.ndarray:
        return _call("sigma", self.sigma, x.shape[:-1] + (self.d, self.d), x, x)

    def eval_f(self, t: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _call("f", self.f, x.shape[:-1] + (self.k,), x, t, x, y, z)

    def eval_g(self, t: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.g is None:
            raise InvalidParameterError("coefficient g is not configured")
        return _call("g", self.g, x.shape[:-1] + (self.k, self.l), x, t, x, y, z)

    def eval_phi(self, t, x: np.ndarray) -> np.ndarray:
        return _call("phi", self.phi, x.shape[:-1] + (self.k,), x, t, x)


def _read_only(a):
    if isinstance(a, np.ndarray):
        a = a.view()
        a.setflags(write=False)
    return a


def _call(name: str, fn: Driver, shape: tuple, x: np.ndarray, *args) -> np.ndarray:
    """fn(*args), each array argument a read-only view, checked for ``shape``
    and finiteness and naming coefficient ``name`` on failure.  When x has no
    rows (``shape`` holds a 0), fn is not called and an empty array returns."""
    if 0 in shape:
        return np.empty(shape)
    out = np.asarray(fn(*map(_read_only, args)), dtype=np.float64)
    if out.shape != shape:
        raise EvaluationError(f"coefficient {name} returned shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(out))[0])
        where = np.asarray(x, dtype=np.float64).reshape(-1, x.shape[-1])
        sample = where[min(bad[0], where.shape[0] - 1)] if where.size else None
        raise EvaluationError(f"coefficient {name} returned a non-finite value at index {bad} (x={sample})")
    return out


# -------------------------------- Noise ------------------------------------ #

_FORWARD_STREAM = 0
_BACKWARD_STREAM = 1
_SCRATCH_WORDS = 2 ** 16   # scratch of the noise fill, summed over its workers


def _fill_gaussians(out: np.ndarray, seed: int, stream: int, start: int) -> np.ndarray:
    """Standard Gaussians from word positions start..start+out.size-1, written
    in place into ``out``, which it returns.

    The generator starts on the Philox block (4 words) of ``start`` and skips
    the offset.  u = (w >> 11) * 2^-53 + 2^-54 rounds as ((w >> 11) + 0.5) *
    2^-53 (scaling by 2^-53 is exact); only w >> 11 = 2^53 - 1 rounds up to 1,
    so u is clamped to 1 - 2^-53 and lies in (0, 1), where the inverse normal
    CDF is finite."""
    block, offset = divmod(start, 4)
    bg = np.random.Philox(key=int(seed) + (int(stream) << 64), counter=block)
    bg.random_raw(offset)
    np.random.Generator(bg).random(out=out)
    out += 2.0 ** -54
    np.minimum(out, 1.0 - 2.0 ** -53, out=out)
    return ndtri(out, out=out)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_shares(fn: Callable, tasks: Sequence, limit: int, pool: Optional[Callable] = None) -> list:
    """[(share, fn(share))] over the interleaved shares tasks[j::w] in share
    order, w = min(limit, len(tasks), CPUs).  Share 0 runs in the calling
    thread, the others on pool(w - 1), by default a thread pool; w = 1 starts
    no pool.  The caller's own error comes first, then the workers' in share
    order; on an error the running shares are waited for."""
    w = min(limit, len(tasks), _cpus())
    if w <= 1:
        return [(tasks, fn(tasks))]
    shares = [tasks[j::w] for j in range(w)]
    with (pool or ThreadPoolExecutor)(w - 1) as workers:
        futures = [workers.submit(fn, share) for share in shares[1:]]
        done = [(shares[0], fn(shares[0]))]
        for share, future in zip(shares[1:], futures):
            try:
                done.append((share, future.result()))
            except BrokenExecutor as err:
                raise BdsdeError(f"the worker of share {list(share)} "
                                 "ended without a result") from err
    return done


@dataclass(frozen=True, eq=False)
class NoiseBundle:
    """Brownian increments for one run: forward (N, M, d), time-major so the
    increments of step i are the contiguous block forward[i], and backward
    (N, l).

    Every coordinate is N(0, h), regenerable bit-exactly from its Philox
    words (module docstring); ``dataclasses.replace`` swaps in arrays of the same shapes.
    """

    seed: int
    grid: TimeGrid
    M: int
    d: int
    l: int
    forward: np.ndarray
    backward: np.ndarray

    def __post_init__(self):
        _shaped("forward noise", self.forward, (self.grid.N, self.M, self.d))
        _shaped("backward noise", self.backward, (self.grid.N, self.l))


def sample_noise(seed: int, M: int, grid: TimeGrid, d: int, l: int) -> NoiseBundle:
    """Draw the full increment bundle for one run.

    Forward words are numbered path by path, (m, i, coordinate) in C order,
    on stream 0: dB[i, m, c] owns word (m*N + i)*d + c.  The single shared
    backward path is the same draw with M = 1 on stream 1, word i*l + c.
    Chunks of whole paths are filled through a small scratch array and
    written transposed into their column block of the time-major output, so
    the output is identical for identical arguments regardless of how the
    caller parallelises the surrounding computation.
    """
    M = _whole("path count M", M, 1)
    seed = _whole("seed", seed, 0, 2 ** 64)
    d, l = _whole("dimension d", d, 1), _whole("dimension l", l, 1)
    root_h = np.sqrt(grid.h)

    def draw(stream: int, M: int, d: int) -> np.ndarray:
        N = grid.N
        out = np.empty((N, M, d))
        # whole paths per chunk, so that the scratch blocks of all workers
        # together hold at most _SCRATCH_WORDS words (a longer path is a chunk)
        workers = _cpus()
        paths = min(M, max(1, _SCRATCH_WORDS // (workers * max(N * d, 1))))

        def fill(share: range) -> None:
            scratch = np.empty((paths, N, d))
            for m0 in share:
                block = _fill_gaussians(scratch[:M - m0], seed, stream, m0 * N * d)
                block *= root_h
                out[:, m0:m0 + block.shape[0]] = block.transpose(1, 0, 2)

        # each worker fills its chunks into their own column blocks of one
        # array, each chunk on its own Philox counter
        _on_shares(fill, range(0, M, paths), workers)
        return _frozen(out)

    return NoiseBundle(seed=seed, grid=grid, M=M, d=d, l=l,
                       forward=draw(_FORWARD_STREAM, M, d),
                       backward=draw(_BACKWARD_STREAM, 1, l)[:, 0])
