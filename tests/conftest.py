"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.parameters import MachineParameters
from repro.machines.catalog import JAKETOWN


@pytest.fixture
def src_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this checkout's
    ``repro`` (its ``src`` first on ``PYTHONPATH``)."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def machine() -> MachineParameters:
    """A machine with every cost term nonzero, so no model term can be
    silently dropped without a test noticing."""
    return MachineParameters(
        gamma_t=2e-9,
        beta_t=3e-8,
        alpha_t=5e-6,
        gamma_e=4e-9,
        beta_e=6e-8,
        alpha_e=2e-6,
        delta_e=7e-9,
        epsilon_e=1e-3,
        memory_words=float(2**30),
        max_message_words=float(2**16),
    )


@pytest.fixture
def jaketown() -> MachineParameters:
    return JAKETOWN


@pytest.fixture
def spmd(request):
    """The SPMD executor a failure test runs on: ``run_spmd``, or a fresh
    ``SpmdPool``'s ``run`` for test classes that set ``on_pool = True``
    (the ``...OnPool`` subclasses rerun a class's tests on the pool)."""
    from repro.simmpi import SpmdPool, run_spmd

    if not getattr(request.cls, "on_pool", False):
        yield run_spmd
        return
    with SpmdPool() as pool:
        yield pool.run


def machine_strategy() -> st.SearchStrategy[MachineParameters]:
    """Random valid machines for property-based tests.

    Parameter magnitudes span realistic hardware ranges; memory and
    message size keep m <= M.
    """
    pos = st.floats(min_value=1e-13, max_value=1e-6, allow_nan=False)
    nonneg = st.floats(min_value=0.0, max_value=1e-6, allow_nan=False)

    def build(gt, bt, at, ge, be, ae, de, ee, logM, frac_m):
        M = float(2.0**logM)
        m = max(1.0, M * frac_m)
        return MachineParameters(
            gamma_t=gt, beta_t=bt, alpha_t=at,
            gamma_e=ge, beta_e=be, alpha_e=ae,
            delta_e=de, epsilon_e=ee,
            memory_words=M, max_message_words=m,
        )

    return st.builds(
        build,
        pos, nonneg, nonneg, nonneg, nonneg, nonneg,
        st.floats(min_value=1e-15, max_value=1e-7),
        nonneg,
        st.integers(min_value=10, max_value=40),
        st.floats(min_value=1e-6, max_value=1.0),
    )
