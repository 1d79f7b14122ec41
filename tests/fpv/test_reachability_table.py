"""Rent-or-buy whole-space next-state table in the vectorized BFS.

The vectorized walk rents the memoised scalar step for tiny frontiers and
buys a table of every (state, input) successor once the rented steps would
have paid for it.  Whatever it does, the result must be bit-identical to the
compiled scalar walk — same states in the same order, same flags, same
transition count — on both sides of the buy point.  The buy rule itself is
pinned with step counts, never timings.
"""

from __future__ import annotations

import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fpv import TransitionSystem, enumerate_reachable
from repro.fpv import transition as transition_module
from repro.fpv.transition import _SCALAR_STEP_LANES

#: The FPV engine's default caps, which the fpv-sweep workload uses.
SWEEP_CAPS = (8192, 400_000)


def _key(result):
    return (
        tuple(result.states),
        result.complete,
        result.frontier_exhausted,
        result.transitions_explored,
    )


def _system(design, backend):
    return TransitionSystem(design, max_input_bits=12, backend=backend)


def _buy_transitions(system):
    """Transitions walked before a chain-like BFS buys its table."""
    space_lanes = (1 << system.state_bits) * system.input_space_size
    rows = -(-space_lanes // (_SCALAR_STEP_LANES * system.input_space_size))
    return rows * system.input_space_size


@pytest.fixture
def table_builds(monkeypatch):
    """Record every whole-space table the BFS builds (weakly, to see it freed)."""
    built = []
    real = transition_module._whole_space_table

    def recording(*args, **kwargs):
        table = real(*args, **kwargs)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(transition_module, "_whole_space_table", recording)
    return built


@pytest.fixture(scope="module")
def chain_systems(corpus):
    """Module-scoped systems: the compiled reference memoises its steps."""
    return {
        name: {
            backend: _system(corpus.design(name), backend)
            for backend in ("compiled", "vectorized")
        }
        for name in ("counter16", "lfsr16")
    }


class TestIdentityAcrossBuyPoint:
    @pytest.mark.parametrize("name", ["counter16", "lfsr16"])
    def test_sweep_caps_identical_and_table_bought(self, chain_systems, table_builds, name):
        systems = chain_systems[name]
        reference = enumerate_reachable(systems["compiled"], *SWEEP_CAPS)
        result = enumerate_reachable(systems["vectorized"], *SWEEP_CAPS)
        assert _key(result) == _key(reference)
        assert not result.complete  # both chains truncate at max_states
        assert len(table_builds) == 1

    @pytest.mark.parametrize("name", ["counter16", "lfsr16"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_transition_cap_around_buy_point(self, chain_systems, name, offset):
        systems = chain_systems[name]
        caps = (100_000, _buy_transitions(systems["compiled"]) + offset)
        reference = enumerate_reachable(systems["compiled"], *caps)
        assert reference.transitions_explored == caps[1] + 1  # cut by this cap
        assert _key(enumerate_reachable(systems["vectorized"], *caps)) == _key(reference)

    @pytest.mark.parametrize("name", ["counter16", "lfsr16"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_state_cap_around_buy_point(self, chain_systems, name, offset):
        systems = chain_systems[name]
        at_buy = enumerate_reachable(
            systems["compiled"], 100_000, _buy_transitions(systems["compiled"])
        )
        caps = (at_buy.count + offset, 400_000)
        reference = enumerate_reachable(systems["compiled"], *caps)
        assert reference.count == caps[0]  # cut by this cap
        assert _key(enumerate_reachable(systems["vectorized"], *caps)) == _key(reference)

    # shift_reg8 buys its table while the frontier is still tiny, then
    # gathers its wide levels from the table.
    @pytest.mark.parametrize(
        "name", ["counter8", "lfsr8", "scrambler7", "gray_counter6", "shift_reg8"]
    )
    def test_complete_walks_identical(self, corpus, table_builds, name):
        design = corpus.design(name)
        reference = enumerate_reachable(_system(design, "compiled"))
        result = enumerate_reachable(_system(design, "vectorized"))
        assert reference.complete and reference.frontier_exhausted
        assert _key(result) == _key(reference)
        assert len(table_builds) == 1  # each walk crosses its buy point

    @pytest.mark.parametrize("name", ["counter8", "shift_reg8"])
    @given(max_states=st.integers(1, 300), max_transitions=st.integers(1, 2500))
    def test_random_caps_identical(self, corpus, name, max_states, max_transitions):
        design = corpus.design(name)
        reference = enumerate_reachable(_system(design, "compiled"), max_states, max_transitions)
        result = enumerate_reachable(_system(design, "vectorized"), max_states, max_transitions)
        assert _key(result) == _key(reference)


class TestBuyRuleCounts:
    def test_counter16_rents_at_most_the_table_price(self, corpus, table_builds):
        system = _system(corpus.design("counter16"), "vectorized")
        enumerate_reachable(system, *SWEEP_CAPS)
        num_inputs = system.input_space_size
        space_lanes = (1 << system.state_bits) * num_inputs
        assert space_lanes == 1 << 19
        # An all-scalar walk would take ~65k steps here.
        assert system.step_cache_info()["misses"] <= space_lanes // _SCALAR_STEP_LANES + num_inputs
        assert len(table_builds) == 1

    @pytest.mark.parametrize("name", ["shift_reg16", "crc8_gen"])
    def test_no_table_where_renting_is_cheaper(self, corpus, table_builds, name):
        # shift_reg16's frontier widens after a few levels; crc8_gen's input
        # grid is wide from the first level.  Eager building slows both.
        system = _system(corpus.design(name), "vectorized")
        enumerate_reachable(system, *SWEEP_CAPS)
        assert table_builds == []

    def test_table_freed_when_walk_returns(self, corpus, table_builds):
        enumerate_reachable(_system(corpus.design("counter8"), "vectorized"))
        assert len(table_builds) == 1
        assert table_builds[0]() is None


class _FaultyKernel:
    """A kernel whose every ``step_packed`` call raises (a fault on some
    state only the whole-space build visits); chain walks never call it
    otherwise."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def step_packed(self, packed_states, packed_inputs):
        self.calls += 1
        raise ArithmeticError("kernel fault on an unreachable state")


class TestFailedBuild:
    @pytest.mark.parametrize(
        "name, caps", [("counter8", (20_000, 2_000_000)), ("counter16", (2048, 60_000))]
    )
    def test_walk_keeps_renting_with_identical_result(self, corpus, name, caps):
        design = corpus.design(name)
        reference = enumerate_reachable(_system(design, "compiled"), *caps)
        system = _system(design, "vectorized")
        faulty = _FaultyKernel(system.vector_kernel())
        system.vector_kernel = lambda: faulty
        result = enumerate_reachable(system, *caps)
        assert _key(result) == _key(reference)
        assert faulty.calls == 1  # tried once, never retried
        assert system.step_cache_info()["misses"] == reference.transitions_explored
