"""Measured-vs-analytic validation: run the simulated algorithms and
compare their metered costs with the paper's cost expressions.

These are the experiments behind the ``bench_sim_*`` benchmarks and the
integration tests: each ``validate_*`` function sweeps a parameter the
paper reasons about (replication factor c, processor count p, all-to-all
flavour), runs the real algorithm on the simulator, and returns records
pairing measured per-rank W/S/F with the model predictions.

The headline check — *perfect strong scaling uses no additional
energy* — is :func:`measure_strong_scaling_matmul` /
:func:`measure_strong_scaling_nbody`: holding n and the per-rank memory
fixed while p grows by c, the measured-count runtime estimate must fall
~1/c while the measured-count energy estimate stays ~constant.

Every comparison here trusts the simulator's metered counts; that trust
is certified upstream by :mod:`repro.conformance`, which differences
all execution modes against closed-form per-rank cost oracles (CLI:
``repro conformance``) — so a metering regression is caught there, not
as an unexplained validation drift here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms.caps import caps_matmul
from repro.algorithms.fft import fft_parallel
from repro.algorithms.lu import lu_2d
from repro.algorithms.matmul25d import matmul_25d
from repro.algorithms.nbody import GRAVITY, ForceLaw, nbody_replicated
from repro.core.parameters import MachineParameters
from repro.exceptions import ParameterError
from repro.machines.catalog import default_machine
from repro.simmpi.pool import shared_pool

__all__ = [
    "ScalingPoint",
    "default_machine",
    "measure_strong_scaling_matmul",
    "measure_strong_scaling_nbody",
    "measure_caps_bandwidth",
    "measure_fft_tradeoff",
    "measure_lu_latency",
    "measure_matmul_comparison",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One sweep point: measured per-rank costs + model-based estimates."""

    label: str
    n: int
    p: int
    c: int
    max_words: int  # measured per-rank W (sent)
    max_messages: int  # measured per-rank S (sent)
    total_flops: float  # measured total F
    est_time: float  # Eq. (1) on measured counts (critical path)
    est_energy: float  # Eq. (2) on measured counts

    @property
    def words_times_p(self) -> float:
        """The Fig. 3 ordinate, measured: W x p."""
        return float(self.max_words) * self.p


def measure_strong_scaling_matmul(
    n: int,
    q: int,
    c_values: tuple[int, ...] = (1, 2, 4),
    machine: MachineParameters | None = None,
    seed: int = 0,
) -> list[ScalingPoint]:
    """Sweep replication factors at *fixed tile size* (fixed per-rank M).

    Each c runs the 2.5D algorithm on p = q^2 c ranks with the same
    n/q x n/q tiles: the exact perfect-strong-scaling walk of the paper
    (p grows by c, M per rank constant). The memory charged to the
    energy model is the resident-tile count (3 tiles), identical at
    every c by construction.
    """
    if machine is None:
        machine = default_machine()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    tile_words = 3 * (n // q) ** 2
    out = []
    for c in c_values:
        if q % c:
            raise ParameterError(f"q={q} must be divisible by every c (got c={c})")
        p = q * q * c
        res = shared_pool().run(p, matmul_25d, a, b, c)
        rep = res.report
        t = rep.estimate_time(machine).total
        e = rep.estimate_energy(machine, memory_words=tile_words).total
        out.append(
            ScalingPoint(
                label=f"matmul25d c={c}",
                n=n,
                p=p,
                c=c,
                max_words=rep.max_words,
                max_messages=rep.max_messages,
                total_flops=rep.total_flops,
                est_time=t,
                est_energy=e,
            )
        )
    return out


def measure_strong_scaling_nbody(
    n: int,
    r: int,
    c_values: tuple[int, ...] = (1, 2, 4),
    law: ForceLaw = GRAVITY,
    machine: MachineParameters | None = None,
    seed: int = 0,
) -> list[ScalingPoint]:
    """Sweep replication factors at fixed particle block size (fixed M).

    p = r c ranks, block n/r particles on every rank for every c.
    """
    if machine is None:
        machine = default_machine()
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((n, 3))
    q = rng.uniform(0.5, 2.0, n)
    block_words = 4 * (n // r)  # 3 coords + 1 charge
    out = []
    for c in c_values:
        if r % c:
            raise ParameterError(f"r={r} must be divisible by every c (got c={c})")
        p = r * c
        res = shared_pool().run(p, nbody_replicated, pos, q, c, law)
        rep = res.report
        t = rep.estimate_time(machine).total
        e = rep.estimate_energy(machine, memory_words=block_words).total
        out.append(
            ScalingPoint(
                label=f"nbody c={c}",
                n=n,
                p=p,
                c=c,
                max_words=rep.max_words,
                max_messages=rep.max_messages,
                total_flops=rep.total_flops,
                est_time=t,
                est_energy=e,
            )
        )
    return out


def measure_caps_bandwidth(
    n_values: tuple[int, ...] = (14, 28),
    p_values: tuple[int, ...] = (7, 49),
    seed: int = 0,
) -> list[ScalingPoint]:
    """CAPS per-rank bandwidth across p at the memory ceiling (all-BFS).

    The model predicts W ~ n^2 / p^(2/omega0); records carry the
    measured counterpart for shape comparison.
    """
    rng = np.random.default_rng(seed)
    machine = default_machine()
    out = []
    for n in n_values:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        for p in p_values:
            if p == 49 and n % 28:
                continue
            res = shared_pool().run(p, caps_matmul, a, b, 0)
            rep = res.report
            out.append(
                ScalingPoint(
                    label=f"caps n={n} p={p}",
                    n=n,
                    p=p,
                    c=1,
                    max_words=rep.max_words,
                    max_messages=rep.max_messages,
                    total_flops=rep.total_flops,
                    est_time=rep.estimate_time(machine).total,
                    est_energy=rep.estimate_energy(
                        machine, memory_words=3 * n * n // p
                    ).total,
                )
            )
    return out


def measure_fft_tradeoff(
    n: int = 1024,
    p_values: tuple[int, ...] = (2, 4, 8, 16),
    seed: int = 0,
) -> dict[str, list[ScalingPoint]]:
    """Naive vs tree (Bruck) all-to-all: S = p-1 vs S = log2 p; the word
    count moves the other way. Reproduces the FFT cost table rows."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    machine = default_machine()
    out: dict[str, list[ScalingPoint]] = {"naive": [], "bruck": []}
    for mode in ("naive", "bruck"):
        for p in p_values:
            res = shared_pool().run(p, fft_parallel, x, mode)
            rep = res.report
            out[mode].append(
                ScalingPoint(
                    label=f"fft {mode} p={p}",
                    n=n,
                    p=p,
                    c=1,
                    max_words=rep.max_words,
                    max_messages=rep.max_messages,
                    total_flops=rep.total_flops,
                    est_time=rep.estimate_time(machine).total,
                    est_energy=rep.estimate_energy(
                        machine, memory_words=2 * n // p
                    ).total,
                )
            )
    return out


def measure_matmul_comparison(
    n: int = 28,
    seed: int = 0,
) -> list[ScalingPoint]:
    """Every matmul implementation on comparable processor counts, one
    table: SUMMA and Cannon (p = 4), 2.5D (p = 8, c = 2), 3D (p = 8)
    and CAPS (p = 7) — measured F/W/S side by side with the model-based
    estimates, the cross-algorithm counterpart of Fig. 3.
    """
    from repro.algorithms.cannon import cannon_matmul
    from repro.algorithms.caps import caps_matmul
    from repro.algorithms.matmul25d import matmul_25d
    from repro.algorithms.summa import summa_matmul

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    machine = default_machine()
    runs = [
        ("summa p=4", 4, 1, lambda comm: summa_matmul(comm, a, b)),
        ("cannon p=4", 4, 1, lambda comm: cannon_matmul(comm, a, b)),
        ("2.5d p=8 c=2", 8, 2, lambda comm: matmul_25d(comm, a, b, 2)),
        ("caps p=7", 7, 1, lambda comm: caps_matmul(comm, a, b)),
    ]
    out = []
    for label, p, c, prog in runs:
        rep = shared_pool().run(p, prog).report
        out.append(
            ScalingPoint(
                label=label,
                n=n,
                p=p,
                c=c,
                max_words=rep.max_words,
                max_messages=rep.max_messages,
                total_flops=rep.total_flops,
                est_time=rep.estimate_time(machine).total,
                est_energy=rep.estimate_energy(
                    machine, memory_words=3 * n * n // p
                ).total,
            )
        )
    return out


def measure_lu_latency(
    n: int = 48,
    p_values: tuple[int, ...] = (4, 16),
    seed: int = 0,
) -> list[ScalingPoint]:
    """2D LU message counts across p: S grows with sqrt(p) (critical
    path), unlike matmul whose S shrinks inside the scaling range —
    the executable face of the paper's 2.5D-LU latency observation."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    machine = default_machine()
    out = []
    for p in p_values:
        res = shared_pool().run(p, lu_2d, a)
        rep = res.report
        out.append(
            ScalingPoint(
                label=f"lu2d p={p}",
                n=n,
                p=p,
                c=1,
                max_words=rep.max_words,
                max_messages=rep.max_messages,
                total_flops=rep.total_flops,
                est_time=rep.estimate_time(machine).total,
                est_energy=rep.estimate_energy(
                    machine, memory_words=3 * (n // int(math.isqrt(p))) ** 2
                ).total,
            )
        )
    return out
