"""Linear policies over normalized observations.

A policy is a single weight matrix, one row per action dimension, no bias.
Discrete action spaces take the argmax over logits; box spaces squash each
logit through tanh and rescale into the bounds.  Observation statistics are
tracked online (Welford) and can be merged across workers, so distributed
and local runs see identical normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]


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

    def flatten(self) -> np.ndarray:
        return self.weights.ravel().copy()


@dataclass
class ObsNormalizer:
    """Streaming mean/variance with parallel merge (Welford / Chan)."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    eps: float = 1e-8
    frozen: bool = False

    @staticmethod
    def create(dim: int, eps: float = 1e-8) -> "ObsNormalizer":
        if dim < 1:
            raise ValueError("dim must be positive")
        return ObsNormalizer(0, np.zeros(dim), np.zeros(dim), eps)

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
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / total)
        self.m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / total)
        self.count = total

    def std(self) -> np.ndarray:
        var = self.m2 / max(self.count - 1, 1)
        return np.maximum(np.sqrt(var), np.sqrt(self.eps))

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
                             self.eps, self.frozen)

    def frozen_view(self) -> "ObsNormalizer":
        out = self.copy()
        out.frozen = True
        return out

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean.tolist(), "m2": self.m2.tolist()}

    @staticmethod
    def from_dict(d: dict, eps: float = 1e-8) -> "ObsNormalizer":
        return ObsNormalizer(int(d["count"]), np.asarray(d["mean"], dtype=float),
                             np.asarray(d["m2"], dtype=float), eps)


def welford_update(count: int, mean: np.ndarray, m2: np.ndarray,
                   obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the ``count``-th observation into running mean and M2 (Welford).

    Elementwise, so rows of ``(L, dim)`` arrays update as L independent
    accumulators would."""
    delta = obs - mean
    mean = mean + delta / count
    return mean, m2 + delta * (obs - mean)


def act_batch(weights: np.ndarray, space: ActionSpace, z: np.ndarray) -> np.ndarray:
    """Actions of L linear policies, lane ``i`` acting on normalized ``z[i]``.

    ``weights`` is a C-contiguous ``(L, act_dim, obs_dim)`` stack.  The
    stacked matmul computes each lane with the same BLAS call, and so the
    same bits, as ``weights[i] @ z[i]``; discrete spaces return ``(L,)``
    indexes, box spaces ``(L, act_dim)`` actions.
    """
    logits = np.matmul(weights, z[:, :, None])[:, :, 0]
    if isinstance(space, Discrete):
        # np.argmax resolves ties toward the lowest action index
        return logits.argmax(axis=1)
    low, high = space.low, space.high
    return low + (np.tanh(logits) + 1.0) * 0.5 * (high - low)


def act(policy: LinearPolicy, normalizer: ObsNormalizer, obs: np.ndarray):
    """Map one observation to an action; pure given its inputs."""
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (policy.obs_dim,) or not np.all(np.isfinite(obs)):
        raise ValueError("observation must be finite with the policy's obs_dim")
    action = act_batch(policy.weights[None], policy.space,
                       normalizer.normalize(obs)[None])[0]
    return int(action) if isinstance(policy.space, Discrete) else action


def _space_to_dict(space: ActionSpace) -> dict:
    if isinstance(space, Discrete):
        return {"kind": "discrete", "n": space.n}
    return {"kind": "box", "low": space.low.tolist(), "high": space.high.tolist()}


def _space_from_dict(d: dict) -> ActionSpace:
    if d["kind"] == "discrete":
        return Discrete(int(d["n"]))
    if d["kind"] == "box":
        return Box(np.asarray(d["low"], dtype=float), np.asarray(d["high"], dtype=float))
    raise ValueError(f"unknown action space kind: {d['kind']!r}")


@dataclass
class Checkpoint:
    env_id: str
    genome: np.ndarray
    obs_dim: int
    space: ActionSpace
    normalizer: ObsNormalizer
    generation: int
    master_seed: int

    def policy(self) -> LinearPolicy:
        return LinearPolicy.from_genome(self.genome, self.obs_dim, self.space)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    doc = {
        "env_id": ckpt.env_id,
        "obs_dim": ckpt.obs_dim,
        "action_space": _space_to_dict(ckpt.space),
        "genome": np.asarray(ckpt.genome, dtype=float).tolist(),
        "normalizer": ckpt.normalizer.to_dict(),
        "generation": ckpt.generation,
        "master_seed": str(ckpt.master_seed),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint.  Raises ValueError if its environment is unknown,
    or its obs_dim, genome length or normalizer moments do not fit that
    environment's spec."""
    from .envs import env_spec      # envs imports this module
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    spec = env_spec(doc["env_id"])
    ckpt = Checkpoint(
        env_id=doc["env_id"],
        genome=np.asarray(doc["genome"], dtype=float),
        obs_dim=int(doc["obs_dim"]),
        space=_space_from_dict(doc["action_space"]),
        normalizer=ObsNormalizer.from_dict(doc["normalizer"]),
        generation=int(doc["generation"]),
        master_seed=int(doc["master_seed"]),
    )
    if ckpt.obs_dim != spec.obs_dim:
        raise ValueError(f"{spec.env_id} observations have {spec.obs_dim} "
                         f"entries, the checkpoint says {ckpt.obs_dim}")
    expect = genome_dim(spec.obs_dim, spec.action_space)
    if ckpt.genome.shape != (expect,):
        raise ValueError(f"{spec.env_id} genomes have {expect} entries, "
                         f"got shape {ckpt.genome.shape}")
    norm = ckpt.normalizer
    if norm.mean.shape != (spec.obs_dim,) or norm.m2.shape != (spec.obs_dim,):
        raise ValueError(f"normalizer moments must have {spec.obs_dim} entries")
    norm.frozen = True
    return ckpt
