"""Unit and integration tests for the assertion miners and ranking."""

import json
from pathlib import Path

import pytest

from repro.fpv import FormalEngine, ProofStatus
from repro.mining import (
    AssertionMiner,
    AssertionRanker,
    Atom,
    GoldMineConfig,
    GoldMineMiner,
    HarmConfig,
    HarmMiner,
    MinerConfig,
    build_dataset,
    candidate_atoms,
    mine_verified_assertions,
    mining_targets,
    trace_atoms,
)
from repro.sim import Simulator


@pytest.fixture(scope="module")
def arb2_trace(arb2_design):
    return Simulator(arb2_design).run(cycles=300, seed=7)


class TestDataset:
    def test_candidate_atoms_single_bit(self, arb2_design):
        atoms = candidate_atoms(arb2_design, "req1")
        assert {(a.signal, a.value) for a in atoms} == {("req1", 0), ("req1", 1)}

    def test_candidate_atoms_wide_signal_uses_bits(self, corpus):
        design = corpus.design("counter16")
        atoms = candidate_atoms(design, "count")
        assert all(atom.bit is not None for atom in atoms)

    def test_trace_atoms_restricted_to_observed(self, arb2_design, arb2_trace):
        atoms = trace_atoms(arb2_design, "gnt_", arb2_trace)
        assert {a.value for a in atoms} <= {0, 1}

    def test_atom_expression_and_evaluation(self):
        atom = Atom("sig", 1)
        assert str(atom.expr()) == "(sig == 1)"
        assert atom.evaluate({"sig": 1}) and not atom.evaluate({"sig": 0})
        bit_atom = Atom("bus", 1, bit=2)
        assert bit_atom.evaluate({"bus": 0b100})

    def test_build_dataset_shapes(self, arb2_design, arb2_trace):
        dataset = build_dataset(arb2_design, arb2_trace, Atom("gnt1", 1))
        assert dataset.num_rows == arb2_trace.num_cycles
        assert dataset.features
        assert 0 < dataset.positives < dataset.num_rows

    def test_build_dataset_with_delay(self, arb2_design, arb2_trace):
        dataset = build_dataset(arb2_design, arb2_trace, Atom("gnt_", 1), delay=1)
        assert dataset.num_rows == arb2_trace.num_cycles - 1

    @pytest.mark.parametrize("delay", [0, 1])
    @pytest.mark.parametrize("target", [Atom("gnt1", 1), Atom("gnt_", 0)])
    def test_columns_equal_rowwise_atom_evaluation(self, arb2_design, arb2_trace, target, delay):
        dataset = build_dataset(arb2_design, arb2_trace, target, delay=delay)
        cycles = range(arb2_trace.num_cycles - delay)
        rows = [arb2_trace.row(cycle) for cycle in cycles]
        for index, atom in enumerate(dataset.features):
            assert dataset.feature_column(index) == [atom.evaluate(row) for row in rows]
        assert dataset.labels() == [
            target.evaluate(arb2_trace.row(cycle + delay)) for cycle in cycles
        ]

    def test_columns_of_wide_and_unrecorded_signals(self, corpus):
        design = corpus.design("lfsr8")
        trace = Simulator(design).run(cycles=60, seed=3)
        del trace.data["en"]
        trace.signals.remove("en")
        # An unrecorded signal reads as 0, as it does in ``Atom.evaluate``.
        dataset = build_dataset(design, trace, Atom("en", 0), feature_signals=["state"], delay=1)
        assert any(atom.bit is not None for atom in dataset.features)
        assert dataset.positives == dataset.num_rows
        cycles = range(trace.num_cycles - 1)
        rows = [trace.row(cycle) for cycle in cycles]
        for index, atom in enumerate(dataset.features):
            assert dataset.feature_column(index) == [atom.evaluate(row) for row in rows]
        assert dataset.labels() == [dataset.target.evaluate(trace.row(c + 1)) for c in cycles]

    def test_mining_targets_order(self, arb2_design):
        targets = mining_targets(arb2_design)
        assert targets[0] in ("gnt1", "gnt2")
        assert "gnt_" in targets


class TestGoldMine:
    def test_mines_candidates_for_arbiter(self, arb2_design, arb2_trace):
        candidates = GoldMineMiner(arb2_design).mine(arb2_trace)
        assert candidates
        rendered = [c.body_text() for c in candidates]
        assert any("gnt1" in text for text in rendered)

    def test_candidates_hold_on_the_mining_trace(self, arb2_design, arb2_trace):
        from repro.fpv import TraceChecker

        checker = TraceChecker(arb2_design.model)
        for candidate in GoldMineMiner(arb2_design).mine(arb2_trace)[:10]:
            assert checker.check(candidate, arb2_trace).holds

    @pytest.mark.parametrize("name", ["arb2", "traffic_light", "uart_tx"])
    def test_candidates_match_recorded_reference(self, name, arb2_design, corpus):
        # Candidate texts, in order, recorded from the row-wise implementation
        # on a 300-cycle seed-7 trace.
        reference = json.loads((Path(__file__).parent / "goldmine_reference.json").read_text())
        design = arb2_design if name == "arb2" else corpus.design(name)
        trace = Simulator(design).run(cycles=300, seed=7)
        candidates = GoldMineMiner(design).mine(trace)
        assert [candidate.body_text() for candidate in candidates] == reference[name]

    def test_max_depth_limits_antecedent_size(self, arb2_design, arb2_trace):
        config = GoldMineConfig(max_depth=1)
        for candidate in GoldMineMiner(arb2_design, config).mine(arb2_trace):
            assert len(candidate.antecedent) <= 1


class TestHarm:
    def test_mines_supported_templates(self, arb2_design, arb2_trace):
        candidates = HarmMiner(arb2_design).mine(arb2_trace)
        assert candidates
        sources = {c.source_text for c in candidates}
        assert any(s.startswith("harm:") for s in sources)

    def test_min_support_filters_rare_antecedents(self, arb2_design, arb2_trace):
        from repro.fpv import TraceChecker

        checker = TraceChecker(arb2_design.model)
        config = HarmConfig(min_support=20)
        for candidate in HarmMiner(arb2_design, config).mine(arb2_trace):
            assert checker.check(candidate, arb2_trace).triggers >= 20


class TestRanking:
    def test_ranking_orders_by_score(self, arb2_design, arb2_trace):
        miner = HarmMiner(arb2_design)
        ranked = AssertionRanker(arb2_design).rank(miner.mine(arb2_trace), arb2_trace)
        scores = [item.score for item in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_selects_requested_count(self, arb2_design, arb2_trace):
        candidates = HarmMiner(arb2_design).mine(arb2_trace)
        top = AssertionRanker(arb2_design).top(candidates, arb2_trace, 3)
        assert len(top) == min(3, len(candidates))


class TestEndToEndMiner:
    def test_miner_produces_verified_assertions(self, arb2_design):
        report = AssertionMiner(arb2_design).mine()
        assert report.num_candidates > 0
        assert 0 < report.num_verified <= report.num_candidates
        assert len(report.selected) <= MinerConfig().max_assertions

    def test_selected_assertions_are_actually_proven(self, arb2_design):
        engine = FormalEngine(arb2_design)
        for assertion in mine_verified_assertions(arb2_design)[:6]:
            assert engine.check(assertion).status is ProofStatus.PROVEN

    def test_verification_can_be_disabled(self, arb2_design):
        config = MinerConfig(verify=False)
        report = AssertionMiner(arb2_design, config).mine()
        assert report.proof_results == []
        assert report.verified == report.candidates
