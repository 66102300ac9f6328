"""Linear policies over normalized observations, and the checked readers of
data from outside the process.

A policy is a single weight matrix, one row per action dimension, no bias.
Discrete action spaces take the argmax over logits; box spaces squash each
logit through tanh and rescale into the bounds.  Observation statistics are
tracked online (Welford) and can be merged across workers, so distributed
and local runs see identical normalization.

``_real``, ``_count``, ``_column``, ``_keys`` and ``ObsNormalizer.from_dict``
are the only code that checks parsed JSON from a config file, a checkpoint
or a message, and a run's settings (``evaluate.RunSpec``).  Values are
checked, not coerced: a string, a bool, a non-finite real or a whole-number
float where an int belongs raises ``ProtocolError``, a ``ValueError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .es import _parse_seed

__all__ = [
    "Discrete",
    "Box",
    "ActionSpace",
    "genome_dim",
    "LinearPolicy",
    "ObsNormalizer",
    "act",
    "act_batch",
    "welford_update",
    "chan_merge",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
    "ProtocolError",
]

EPS = 1e-8  # std() never falls below sqrt(EPS)


def _f64(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array: a constant operand that
    numpy takes without the conversion a Python float costs on every call."""
    out = np.array(value, dtype=np.float64)
    out.flags.writeable = False
    return out


_ONE = _f64(1.0)


class ProtocolError(ValueError):
    """A file, a peer or a caller sent data this end cannot act on."""


def _real(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number: an int or a float,
    not a bool or a string."""
    try:
        # an int too large for a float overflows instead of being infinite
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ProtocolError(f"{what} must be a finite number, not {value!r}")


def _count(value, what: str, low: int = 0, high: float = math.inf) -> int:
    """``value`` if it is an int, not a bool or a float, in ``[low, high]``."""
    if type(value) is not int or not low <= value <= high:
        raise ProtocolError(f"{what} must be an int in [{low}, {high}], not {value!r}")
    return value


def _keys(doc, settings, name: str, partial: bool = False) -> None:
    """Refuse a ``doc`` that is not an object, has a key not among the
    ``settings`` names (which a reader would ignore), or, unless ``partial``,
    lacks one."""
    if not isinstance(doc, dict):
        raise ProtocolError(f"{name} must be a JSON object")
    unknown = sorted(doc.keys() - settings)
    if unknown:
        raise ProtocolError(f"{name}.{unknown[0]} is not a setting; "
                            f"the settings are {', '.join(settings)}")
    missing = [key for key in settings if key not in doc]
    if missing and not partial:
        raise ProtocolError(f"{name}.{missing[0]} is missing")


def _column(doc: dict, key: str, rows: int, width: int | None = None,
            parse=_real, where: str = "RESULT") -> np.ndarray:
    """Column ``key`` of a ``where`` object: a list of ``rows`` entries,
    each a list of ``width`` entries unless that is None, every entry passed
    through ``parse``."""
    col, key = doc.get(key), f"{where} {key}"
    if not isinstance(col, list) or len(col) != rows:
        raise ProtocolError(f"{key} must be a list of {rows} rows")
    if width is not None:
        if not all(isinstance(row, list) and len(row) == width for row in col):
            raise ProtocolError(f"{key} rows must be lists of {width} entries")
        col = [v for row in col for v in row]
    values = np.array([parse(v, key) for v in col])
    return values if width is None else values.reshape(rows, width)


@dataclass(frozen=True)
class Discrete:
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("discrete action space needs at least 2 actions")

    @property
    def act_dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class Box:
    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        if low.ndim != 1 or low.shape != high.shape:
            raise ValueError("box bounds must be 1-d and the same shape")
        if not (np.all(np.isfinite(low)) and np.all(np.isfinite(high))):
            raise ValueError("box bounds must be finite")
        if not np.all(low < high):
            raise ValueError("box bounds must satisfy low < high elementwise")
        # not a field: derived from the bounds, for act_batch
        object.__setattr__(self, "half_width", 0.5 * (high - low))

    @property
    def act_dim(self) -> int:
        return len(self.low)


ActionSpace = Discrete | Box


def genome_dim(obs_dim: int, space: ActionSpace) -> int:
    if obs_dim < 1:
        raise ValueError("obs_dim must be positive")
    return obs_dim * space.act_dim


@dataclass
class LinearPolicy:
    weights: np.ndarray            # (act_dim, obs_dim)
    space: ActionSpace
    obs_dim: int

    @staticmethod
    def from_genome(genome: np.ndarray, obs_dim: int, space: ActionSpace) -> "LinearPolicy":
        genome = np.asarray(genome, dtype=float)
        expect = genome_dim(obs_dim, space)
        if genome.shape != (expect,):
            raise ValueError(f"genome must have length {expect}, got {genome.shape}")
        # row-major by action: row a holds the weights feeding action logit a
        w = genome.reshape(space.act_dim, obs_dim)
        return LinearPolicy(w, space, obs_dim)


@dataclass
class ObsNormalizer:
    """Streaming mean/variance with parallel merge (Welford / Chan)."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    frozen: bool = False

    @staticmethod
    def create(dim: int) -> "ObsNormalizer":
        if dim < 1:
            raise ValueError("dim must be positive")
        return ObsNormalizer(0, np.zeros(dim), np.zeros(dim))

    @property
    def dim(self) -> int:
        return len(self.mean)

    def update(self, obs: np.ndarray) -> None:
        if self.frozen:
            raise RuntimeError("cannot update a frozen normalizer")
        obs = np.asarray(obs, dtype=float)
        if obs.shape != (self.dim,):
            raise ValueError(f"observation must have shape ({self.dim},)")
        self.count += 1
        self.mean, self.m2 = welford_update(self.count, self.mean, self.m2, obs)

    def merge(self, other: "ObsNormalizer") -> None:
        """Fold another accumulator in; order of merges is the caller's duty."""
        if self.frozen:
            raise RuntimeError("cannot update a frozen normalizer")
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in merge")
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            return
        self.count, self.mean, self.m2 = chan_merge(
            self.count, self.mean, self.m2, other.count, other.mean, other.m2)

    def std(self) -> np.ndarray:
        var = self.m2 / max(self.count - 1, 1)
        return np.maximum(np.sqrt(var), np.sqrt(EPS))

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """``(shift, scale)`` with ``normalize(obs) == (obs - shift) / scale``."""
        if self.count <= 1:
            # too little data to estimate spread; pass observations through
            # (x - 0.0) / 1.0 is x, bit for bit
            return np.zeros(self.dim), np.ones(self.dim)
        return self.mean, self.std()

    def normalize(self, obs: np.ndarray) -> np.ndarray:
        shift, scale = self.affine()
        return (np.asarray(obs, dtype=float) - shift) / scale

    def copy(self) -> "ObsNormalizer":
        return ObsNormalizer(self.count, self.mean.copy(), self.m2.copy(),
                             self.frozen)

    def frozen_view(self) -> "ObsNormalizer":
        out = self.copy()
        out.frozen = True
        return out

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean.tolist(), "m2": self.m2.tolist()}

    @staticmethod
    def from_dict(d: dict, dim: int) -> "ObsNormalizer":
        """Inverse of ``to_dict``, the one reader of a snapshot from a file
        or a message.  Raises ProtocolError unless ``d`` is an object whose
        ``count`` is an int >= 0 and whose ``mean`` and ``m2`` are lists of
        ``dim`` finite numbers, m2 not negative."""
        if not isinstance(d, dict):
            raise ProtocolError(f"a normalizer must be an object, not {d!r}")
        m2 = _column(d, "m2", dim, where="normalizer")
        if (m2 < 0).any():
            raise ProtocolError("normalizer m2 must not be negative")
        return ObsNormalizer(_count(d.get("count"), "normalizer count"),
                             _column(d, "mean", dim, where="normalizer"), m2)


def welford_update(count: int, mean: np.ndarray, m2: np.ndarray,
                   obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the ``count``-th observation into running mean and M2 (Welford).

    Elementwise, so rows of ``(L, dim)`` arrays update as L independent
    accumulators would."""
    delta = obs - mean
    mean = mean + delta / count
    return mean, m2 + delta * (obs - mean)


def chan_merge(count, mean: np.ndarray, m2: np.ndarray, other_count,
               other_mean: np.ndarray, other_m2: np.ndarray):
    """Merge two accumulators' ``(count, mean, m2)``, both counts at least 1,
    and return the merged triple (Chan et al.).

    Takes int counts with ``(dim,)`` moments, or ``(rows, 1)`` counts with
    ``(rows, dim)`` moments, whose rows merge as separate accumulators
    would."""
    total = count + other_count
    delta = other_mean - mean
    return (total, mean + delta * (other_count / total),
            m2 + other_m2 + delta * delta * (count * other_count / total))


def act_batch(weights: np.ndarray, space: ActionSpace, z: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Actions of L linear policies, lane ``i`` acting on normalized ``z[i]``.

    ``weights`` is a C-contiguous ``(L, act_dim, obs_dim)`` stack.  The
    stacked matmul computes each lane with the same BLAS call, and so the
    same bits, as ``weights[i] @ z[i]``; discrete spaces return ``(L,)``
    indexes, box spaces ``(L, act_dim)`` actions, written into ``out`` when
    it is given.  For a box, any ``space`` with ``half_width`` and ``low``
    arrays will do: ``run_episodes`` passes them tiled to ``(L, act_dim)``,
    since numpy takes an operand of the actions' shape faster than one it
    must broadcast.
    """
    logits = np.matmul(weights, z[:, :, None])[:, :, 0]
    if isinstance(space, Discrete):
        # np.argmax resolves ties toward the lowest action index
        return logits.argmax(axis=1, out=out)
    # low + (tanh(logits) + 1) * 0.5 * (high - low), in place.  Halving is
    # exact for t + 1 (0 or at least 2**-53) and for any width above 2**-1021,
    # so (t + 1) * half_width has the bits of ((t + 1) * 0.5) * (high - low)
    actions = np.tanh(logits, out=out)
    actions += _ONE
    actions *= space.half_width
    actions += space.low
    return actions


def act(policy: LinearPolicy, normalizer: ObsNormalizer, obs: np.ndarray):
    """Map one observation to an action; pure given its inputs."""
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (policy.obs_dim,) or not np.all(np.isfinite(obs)):
        raise ValueError("observation must be finite with the policy's obs_dim")
    action = act_batch(policy.weights[None], policy.space,
                       normalizer.normalize(obs)[None])[0]
    return int(action) if isinstance(policy.space, Discrete) else action


@dataclass
class Checkpoint:
    """A policy's genome and frozen normalizer, and the run they came from.
    Shapes are not stored: the environment's spec fixes them."""

    env_id: str
    genome: np.ndarray
    normalizer: ObsNormalizer
    generation: int
    master_seed: int

    def policy(self) -> LinearPolicy:
        from .envs import env_spec      # envs imports this module
        spec = env_spec(self.env_id)
        return LinearPolicy.from_genome(self.genome, spec.obs_dim, spec.action_space)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    doc = {
        "env_id": ckpt.env_id,
        "genome": np.asarray(ckpt.genome, dtype=float).tolist(),
        "normalizer": ckpt.normalizer.to_dict(),
        "generation": ckpt.generation,
        "master_seed": str(ckpt.master_seed),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint.  Its environment must be known, and its values are
    checked, not coerced: its genome and normalizer must fit that
    environment's spec (``ObsNormalizer.from_dict``), its generation must be
    an int >= 0 and its master seed a string of decimal digits that fits in
    64 bits; ValueError otherwise.  Keys other than those ``save_checkpoint``
    writes are ignored."""
    from .envs import env_spec      # envs imports this module
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    spec = env_spec(doc["env_id"])
    normalizer = ObsNormalizer.from_dict(doc["normalizer"], spec.obs_dim)
    normalizer.frozen = True
    return Checkpoint(
        env_id=doc["env_id"],
        genome=_column(doc, "genome", genome_dim(spec.obs_dim, spec.action_space),
                       where="checkpoint"),
        normalizer=normalizer,
        generation=_count(doc["generation"], "checkpoint generation"),
        master_seed=_parse_seed(doc["master_seed"]),
    )
