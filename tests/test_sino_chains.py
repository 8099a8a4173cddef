"""Tests of the annealer's chain loop and its shared-memory fan-out.

Covers the contracts the one chain loop makes:

* every chain reproduces the scalar reference oracle bit-for-bit;
* per-chain seeds and configs are derived deterministically, and in-process
  chains share one evaluation memo;
* multi-chain fan-out over a non-shared-memory backend ships panel states
  through shared memory (zero pickled matrices), with backend-independent
  results and no leaked ``/dev/shm`` segments;
* the retired best-of-K width is rejected everywhere it used to be accepted.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro.cli import main
from repro.engine.backends import ProcessBackend, SerialBackend
from repro.obs.trace import Tracer, set_active_tracer
from repro.service import submit_job
from repro.service.scenarios import generate_scenario
from repro.sino.anneal import (
    AnnealConfig,
    _chain_config,
    _run_chains,
    _sample_move,
    anneal_sino,
    anneal_sino_multichain,
    anneal_sino_reference,
    derive_chain_seed,
    reduce_best_feasible,
    solve_min_area_sino,
)
from repro.sino.greedy import greedy_sino
from repro.sino.incremental import IncrementalPanelState
from repro.sino.panel import SinoProblem

from tests.conftest import make_random_sino_problem


class TestReferenceIdentity:
    """The chain is the scalar reference annealer, bit for bit.

    The reference-equivalence check of ``test_sino_incremental`` on wider
    ten-segment panels.
    """

    @pytest.mark.parametrize("seed", [0, 3, 11, 2002])
    def test_chain_matches_reference_annealer(self, seed):
        problem = make_random_sino_problem(10, 0.5, 0.85, seed=seed)
        config = AnnealConfig(iterations=600, seed=seed)
        reference = anneal_sino_reference(problem, config=config)
        assert anneal_sino(problem, config=config).layout == reference.layout


class TestRetiredBestOfKWidth:
    """The best-of-K width knob is gone from every surface that took it."""

    def test_anneal_config_has_no_width_field(self):
        with pytest.raises(TypeError):
            AnnealConfig(batch_k=8)

    def test_compare_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--scale", "0.01", "--effort", "anneal", "--batch-k", "8"])
        assert excinfo.value.code == 2

    def test_scenario_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            generate_scenario("dense-bus", {"batch_k": 8})

    def test_submit_rejects_before_writing_a_record(self, tmp_path):
        root = tmp_path / "svc"
        with pytest.raises(ValueError, match="unknown"):
            submit_job(root, "dense-bus", params={"batch_k": 8})
        assert not root.exists() or not any(root.rglob("*.json"))


class TestChainSeedDerivation:
    def test_chain_zero_keeps_the_configured_seed(self):
        assert derive_chain_seed(2002, 0) == 2002
        assert derive_chain_seed(7, 0) == 7

    def test_derived_seeds_are_pinned(self):
        # Pinned values: the derivation feeds the panel cache key through
        # each chain's config, so it must never drift between releases.
        assert derive_chain_seed(2002, 1) == 3291206842
        assert derive_chain_seed(2002, 2) == 1031596892
        assert derive_chain_seed(7, 1) == 369571992

    def test_no_collisions_across_seeds_and_chains(self):
        derived = {derive_chain_seed(seed, chain) for seed in range(40) for chain in range(8)}
        assert len(derived) == 40 * 8


class TestChainConfigDerivation:
    def test_chain_config_swaps_only_the_seed(self):
        template = AnnealConfig(iterations=700, seed=5, chains=3)
        derived = _chain_config(template, 999)
        assert derived.seed == 999
        for config_field in fields(AnnealConfig):
            if config_field.name == "seed":
                continue
            assert getattr(derived, config_field.name) == getattr(template, config_field.name)

    def test_chain_config_is_identity_for_the_template_seed(self):
        template = AnnealConfig(seed=5)
        assert _chain_config(template, 5) is template


class TestCloneSharesEvalMemo:
    def test_clone_shares_the_memo_dict(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=13)
        state = IncrementalPanelState(problem, list(greedy_sino(problem).layout), AnnealConfig())
        clone = state.clone()
        assert clone._eval_cache is state._eval_cache

    def test_evaluations_flow_between_clones(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=13)
        state = IncrementalPanelState(problem, list(greedy_sino(problem).layout), AnnealConfig())
        clone = state.clone()
        rng = np.random.default_rng(0)
        move = _sample_move(state, rng)
        state.propose(move)
        state.revert()
        before = len(state._eval_cache)
        clone.propose(move)  # must hit the sibling's cached evaluation
        clone.revert()
        assert len(clone._eval_cache) == before


def _assert_no_panel_payload(value, path="task"):
    """Recursively assert a task carries no matrices and no problem object."""
    assert not isinstance(value, np.ndarray), f"{path} carries an ndarray"
    assert not isinstance(value, SinoProblem), f"{path} carries a SinoProblem"
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _assert_no_panel_payload(item, f"{path}[{index}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_no_panel_payload(item, f"{path}[{key!r}]")
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            _assert_no_panel_payload(getattr(value, name), f"{path}.{name}")


class _PickleScanBackend(SerialBackend):
    """Serial execution behind a process-backend facade.

    ``shares_memory=False`` routes the chain fan-out onto the shared-memory
    export path; every task is scanned for forbidden payloads and pickled
    round-trip before running, which is exactly the proof a real process
    pool needs.
    """

    name = "pickle-scan"

    def __init__(self):
        super().__init__()
        self.payload_bytes = 0
        self.tasks_scanned = 0

    @property
    def shares_memory(self) -> bool:
        return False

    def submit_batch(self, fn, chunks):
        results = []
        for chunk in chunks:
            for task in chunk:
                _assert_no_panel_payload(task)
            blob = pickle.dumps(chunk)
            self.payload_bytes += len(blob)
            self.tasks_scanned += len(chunk)
            results.append([fn(task) for task in pickle.loads(blob)])
        return results


class TestSharedMemoryFanOut:
    def _chain_problem(self):
        return make_random_sino_problem(10, 0.5, 0.8, seed=21)

    def test_non_shared_backend_pickles_no_panel_matrices(self):
        problem = self._chain_problem()
        config = AnnealConfig(iterations=300, seed=4, chains=4)
        backend = _PickleScanBackend()
        fanned = anneal_sino_multichain(problem, config=config, backend=backend)
        serial = anneal_sino_multichain(problem, config=config)
        assert backend.tasks_scanned == 4
        # A chain task is (handle, config): a few hundred bytes,
        # however large the panel — nothing quadratic crosses the boundary.
        assert backend.payload_bytes < 4 * 4096
        assert fanned.layout == serial.layout

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="platform has no /dev/shm")
    def test_process_backend_matches_serial_and_leaks_no_segments(self):
        problem = self._chain_problem()
        config = AnnealConfig(iterations=300, seed=4, chains=4)
        before = set(os.listdir("/dev/shm"))
        with ProcessBackend(workers=2) as backend:
            fanned = anneal_sino_multichain(problem, config=config, backend=backend)
        serial = anneal_sino_multichain(problem, config=config)
        assert fanned.layout == serial.layout
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"

    def test_run_chains_matches_across_backends(self):
        problem = self._chain_problem()
        config = AnnealConfig(iterations=200, seed=11, chains=3)
        inline = _run_chains(problem, None, config, None)
        scanned = _run_chains(problem, None, config, _PickleScanBackend())
        assert [s.layout for s in inline] == [s.layout for s in scanned]


class TestEffortDispatch:
    def test_anneal_and_portfolio_efforts_dispatch_to_the_chain(self):
        problem = make_random_sino_problem(9, 0.5, 0.85, seed=6)
        config = AnnealConfig(iterations=400, seed=6)
        via_effort = solve_min_area_sino(problem, effort="anneal", config=config)
        assert via_effort.layout == anneal_sino(problem, config=config).layout
        assert via_effort.is_valid()
        portfolio = solve_min_area_sino(problem, effort="portfolio", config=config)
        candidates = [greedy_sino(problem), via_effort]
        assert portfolio.layout == reduce_best_feasible(candidates, config).layout


class TestChainTracing:
    def test_ambient_tracer_records_per_chain_spans_with_counters(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=2)
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            anneal_sino_multichain(
                problem, config=AnnealConfig(iterations=200, seed=2, chains=2)
            )
            anneal_sino(problem, config=AnnealConfig(iterations=200, seed=2))
        finally:
            set_active_tracer(None)
        report = tracer.format_report()
        assert report.count("anneal.chain") == 3
        assert report.count("steps=") == 3
        assert report.count("accepts=") == 3
