"""Clustering-cost oracle: fixed-threshold build and feedback variant.

The build freezes a coordinated sample whose estimates are reliable for
every query with cost at or above the threshold C. It is set up as the
wrapper's: a kmeans++ trace over a uniform subsample S0 of the rows
(`kmeanspp.subsample_trace`) estimates each prefix's sample size, and the
smallest, the sweet spot M, gets one exact pass over every row, which gives
its exact pi and v_M. The one2all bound holds for any M, so S0 sets only
the sample's size. The feedback variant starts at C = S0's v_2k, an estimate
of the full data's (any C > 0 is valid), and, whenever a query's estimate
falls at or below C, computes the exact cost, grows the sample's scale
in place (same per-point uniforms, so members only get added), and halves
the threshold.
"""

from __future__ import annotations

import os
import tempfile
import tokenize
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .core import MetricSpace, as_points, as_weights, cost, require_finite
from .errors import DataFormatError
from .kmeanspp import subsample_trace
from .probabilities import check_eps, one2all_probs, sweet_spot
from .sampling import CoordinatedSample, draw, estimate_cost, point_uniforms

_FORMAT_VERSION = 4  # 4: the sample's pi and scale, not its p
# every key save writes; load checks them all before it uses any
_SCALARS = ("version", "kind", "power", "n", "eps", "C", "sample_seed", "prefix_index",
            "update_count", "scale")
_ARRAYS = ("pi", "members", "member_points", "member_weights")


@dataclass
class OracleState:
    space: MetricSpace = field(repr=False)
    # its pi and u are the state's only n-length arrays; an exact answer keeps nothing
    sample: CoordinatedSample = field(repr=False)
    C: float
    eps: float
    prefix_index: int
    update_count: int
    sample_seed: int

    @property
    def size(self) -> int:
        return self.sample.size


def build(space: MetricSpace, X, w, ell: int, C: float, eps: float, seed: int) -> OracleState:
    """Fixed-threshold oracle: reliable for queries with cost >= C."""
    if not 0 < C < np.inf:
        raise ValueError("C must be positive and finite")
    return _build(space, X, w, ell, C, eps, seed)


def build_feedback(space: MetricSpace, X, w, k: int, eps: float, seed: int) -> OracleState:
    """Feedback oracle initialization: ell = 2k, threshold C = S0's v_2k.

    C is the subsample's estimate of the full data's v_2k; any C > 0 is a
    valid threshold, and the feedback halves it as queries need.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    X = as_points(X)
    return _build(space, X, w, min(2 * k, X.shape[0]), None, eps, seed)


def _build(space, X, w, ell, C, eps, seed) -> OracleState:
    """Shared build: C=None means C = S0's v_ell.

    The prefix is picked on S0, and its pi and v_M come from one exact pass
    over every row, so the sample, pi at scale max{1, v_M/C} eps^-2, is exact
    for that M. With n <= _SUBSAMPLE, S0 is every row, and the build is a
    full-data trace's bit for bit. A zero C (no residual cost on S0) keeps
    every point: queries are exact. The trace stops at its first zero cost,
    so that prefix is the whole trace.
    """
    check_eps(eps)
    X = as_points(X)
    n = X.shape[0]
    w = as_weights(w, n)
    trace_seed, sample_seed, sub_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3)
    )
    trace = subsample_trace(space, X, w, ell, trace_seed, sub_seed)
    if C is None:
        C = float(trace.prefix_costs[-1])
    if C > 0.0:
        i_star = sweet_spot(trace, C, eps, n)[0]
        M = trace.prefix(i_star)
        del trace  # S0 goes before the full-data pass
        probs = one2all_probs(space, X, w, M)
        pi, scale = probs.pi, max(1.0, probs.cost_m / C) * eps**-2
    else:
        i_star, pi, scale = trace.ell, np.ones(n), 1.0
    return OracleState(
        space=space,
        sample=draw(X, w, pi, sample_seed, scale),
        C=float(C),
        eps=float(eps),
        prefix_index=i_star,
        update_count=0,
        sample_seed=int(sample_seed),
    )


def query(state: OracleState, Q) -> float:
    """Inverse-probability cost estimate from the frozen sample."""
    return estimate_cost(state.space, state.sample, Q)


def feedback_query(state: OracleState, Q) -> tuple[float, bool]:
    """Estimate; on estimate <= C answer exactly and grow the sample.

    The sample's scale grows by max{2, 2C/V} (the sample at least doubles
    even when a noisy estimate triggered the update), or to inf for V = 0,
    and the threshold becomes min{C, V}/2 so it always at least halves. A
    saturated state answers exactly and never updates.
    """
    est = query(state, Q)
    sample = state.sample
    if est > state.C or sample.saturated:  # a saturated sample's estimate is exact
        return est, False
    if sample.points is None:
        raise ValueError("feedback needs the dataset; load with points and weights")
    V = cost(state.space, sample.points, sample.weights, Q)
    scale = max(2.0, 2.0 * state.C / V) * sample.scale if V > 0.0 else np.inf
    state.sample = sample.with_probabilities(sample.pi, scale)
    state.C = min(state.C, V) / 2.0
    state.update_count += 1
    return V, True


def save(state: OracleState, path: str) -> None:
    """Serialize to an npz file, atomically (write-new-then-rename)."""
    payload = {
        "version": np.int64(_FORMAT_VERSION),
        "kind": np.array(state.space.kind),
        "power": np.float64(state.space.power),
        "n": np.int64(state.sample.pi.shape[0]),
        "eps": np.float64(state.eps),
        "C": np.float64(state.C),
        "sample_seed": np.int64(state.sample_seed),
        "prefix_index": np.int64(state.prefix_index),
        "update_count": np.int64(state.update_count),
        "scale": np.float64(state.sample.scale),
        "pi": state.sample.pi,
        "members": state.sample.members,
        "member_points": state.sample.member_points,
        "member_weights": state.sample.member_weights,
    }
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path: str, space: MetricSpace | None = None, points=None, weights=None) -> OracleState:
    """Rebuild an oracle from disk.

    A space passed must have the file's kind and, if Euclidean, its power.
    Standalone (no points): queries work off the stored member points;
    feedback is unavailable. The per-point uniforms are regenerated from
    the stored seed either way, and the stored members must be the points
    they select. With the original dataset, the members' points and weights
    must match it bit-exactly too; weights alone raise ValueError.
    """
    if weights is not None and points is None:
        raise ValueError("weights need their points: pass points too")
    try:
        # numpy stops where an array's header says, short of the CRC-32 check at
        # the member's end, so a damaged shape or dtype byte would pass unseen
        with zipfile.ZipFile(path) as zf:
            damaged = zf.testzip()
        if damaged is not None:
            raise ValueError(f"{damaged} fails its CRC check")
        with np.load(path, allow_pickle=False) as z:
            data = {key: z[key] for key in z.files}
    except (OSError, ValueError, EOFError, RuntimeError, SyntaxError, zipfile.BadZipFile,
            tokenize.TokenError) as e:  # what zipfile and numpy raise on a bad file
        raise DataFormatError(f"cannot read oracle file {path}: {e}") from e
    version = data.get("version")
    version = int(version) if version is not None and version.shape == () else None
    if version != _FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: oracle file format {version}, expected {_FORMAT_VERSION}; "
            "build the oracle again"
        )
    _check(path, data)
    kind = str(data["kind"])
    if space is None:
        if kind != "euclidean":
            raise DataFormatError(
                "oracle was built over a matrix space; pass the space explicitly"
            )
        space = MetricSpace.euclidean(float(data["power"]))
    elif space.kind != kind or (kind == "euclidean" and space.power != float(data["power"])):
        raise DataFormatError(f"{path}: the oracle's space (kind {kind}, power "
                              f"{float(data['power'])!r}) is not {space!r}")
    sample = CoordinatedSample(None, None, None, data["pi"], float(data["scale"]),
                               data["members"], data["member_points"], data["member_weights"])
    sample_seed = int(data["sample_seed"])
    if points is not None:
        points = as_points(points)
        n = points.shape[0]
        if n != int(data["n"]):
            raise DataFormatError(
                f"dataset has {n} points but oracle was built over {int(data['n'])}"
            )
        require_finite(points=points)
        stored, sample = sample, draw(points, weights, sample.pi, sample_seed, sample.scale)
        if not all(np.array_equal(getattr(sample, key), getattr(stored, key))
                   for key in ("members", "member_points", "member_weights")):
            raise DataFormatError(
                "stored sample does not match the dataset and seed; "
                "wrong dataset for this oracle file?"
            )
    elif not np.array_equal(np.flatnonzero(point_uniforms(sample_seed, sample.pi.shape[0])
                                           <= sample.scale * sample.pi), sample.members):
        raise DataFormatError(
            f"{path}: stored members are not the sample that pi, scale and sample_seed select"
        )
    return OracleState(
        space=space,
        sample=sample,
        C=float(data["C"]),
        eps=float(data["eps"]),
        prefix_index=int(data["prefix_index"]),
        update_count=int(data["update_count"]),
        sample_seed=sample_seed,
    )


def _check(path: str, data: dict) -> None:
    """Raise DataFormatError unless data holds every key save writes, with
    the dtypes and shapes that n, the member count and the point shape imply,
    and values a query can trust: a known kind, a power the space takes, a
    finite C >= 0 (a zero residual saves 0), an eps `check_eps` takes, a
    nonnegative integer sample_seed, a scale > 0, pi in [0, 1] whose scaled
    values are > 0 at members, positive finite member weights, finite points."""
    missing = [key for key in _SCALARS + _ARRAYS if key not in data]
    if missing:
        raise DataFormatError(f"{path}: oracle file lacks {', '.join(missing)}")
    for key in _SCALARS + _ARRAYS:
        a = data[key]
        if (key in _SCALARS and a.shape != ()) or (key != "kind" and a.dtype.kind not in "iuf"):
            raise DataFormatError(f"{path}: oracle {key} has dtype {a.dtype} and shape {a.shape}")
    kind = str(data["kind"])
    if kind not in ("euclidean", "matrix"):
        raise DataFormatError(f"{path}: oracle kind {kind!r} is not euclidean or matrix")
    if not 0.0 <= data["C"] < np.inf:
        raise DataFormatError(f"{path}: oracle C {float(data['C'])!r} is not finite and >= 0")
    try:
        check_eps(float(data["eps"]))
        if kind == "euclidean":  # a matrix file's power is NaN
            MetricSpace.euclidean(float(data["power"]))
    except ValueError as e:
        raise DataFormatError(f"{path}: oracle {e}") from e
    seed = data["sample_seed"]
    if seed.dtype.kind not in "iu" or seed < 0:
        raise DataFormatError(f"{path}: oracle sample_seed {seed} is not an integer >= 0")
    n = int(data["n"])
    members = data["members"]
    if members.ndim != 1 or members.dtype.kind not in "iu" or (
            members.size and not 0 <= members.min() <= members.max() < n):
        raise DataFormatError(f"{path}: oracle members are not indices in 0..{n - 1}")
    tail = data["member_points"].shape[1:]  # (d,) for Euclidean points, () for indices
    if len(tail) != (0 if kind == "matrix" else 1):
        raise DataFormatError(f"{path}: oracle member_points have shape {tail} per point")
    want = {"pi": (n,), "member_points": members.shape + tail, "member_weights": members.shape}
    for key, shape in want.items():
        if data[key].shape != shape:
            raise DataFormatError(f"{path}: oracle {key} has shape {data[key].shape}, not {shape}")
    pi, scale, weights = data["pi"], data["scale"], data["member_weights"]
    if not scale > 0.0:  # NaN fails
        raise DataFormatError(f"{path}: oracle scale {float(scale)!r} is not > 0")
    if not (np.all((pi >= 0.0) & (pi <= 1.0)) and np.all(scale * pi[members] > 0.0)):
        raise DataFormatError(f"{path}: oracle pi are not in [0, 1] with scale pi > 0 at members")
    if not np.all(np.isfinite(weights) & (weights > 0.0)):
        raise DataFormatError(f"{path}: oracle member_weights are not positive and finite")
    if not np.all(np.isfinite(data["member_points"])):
        raise DataFormatError(f"{path}: oracle member_points contain NaN or inf")
