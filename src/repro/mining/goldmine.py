"""GoldMine-style assertion mining: decision-tree induction over traces.

GoldMine (Vasudevan et al.; reference [11] of the paper) mines candidate
assertions by learning a decision tree that predicts a target proposition
from other design signals observed in simulation, guided by lightweight
static analysis (the cone of influence restricts the feature set).  Every
root-to-leaf path ending in a pure leaf becomes a candidate assertion whose
antecedent is the conjunction of decisions along the path.  Candidates are
then discharged on the FPV engine; only proven ones survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hdl.design import Design
from ..sim.trace import Trace
from ..sva.model import NON_OVERLAPPED, OVERLAPPED, Assertion, SequenceTerm
from .dataset import Atom, MiningDataset, build_dataset, mining_targets, trace_atoms


@dataclass
class GoldMineConfig:
    """Hyper-parameters of the decision-tree miner."""

    max_depth: int = 3
    min_leaf_support: int = 4
    min_purity: float = 1.0
    max_assertions_per_target: int = 6
    mine_next_cycle: bool = True
    #: Explain at most this many target signals (outputs first).
    max_targets: int = 12


@dataclass
class _TreeNode:
    atom: Optional[Atom] = None
    true_branch: Optional["_TreeNode"] = None
    false_branch: Optional["_TreeNode"] = None
    label: Optional[bool] = None
    support: int = 0
    purity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.atom is None


class GoldMineMiner:
    """Mine candidate assertions for one design from a simulation trace."""

    def __init__(self, design: Design, config: Optional[GoldMineConfig] = None):
        self._design = design
        self._config = config or GoldMineConfig()

    def mine(self, trace: Trace) -> List[Assertion]:
        """Return candidate assertions mined from ``trace`` (unverified)."""
        assertions: List[Assertion] = []
        clock = self._design.model.clocks[0] if self._design.model.clocks else None
        for target_signal in mining_targets(self._design)[: self._config.max_targets]:
            for target_atom in trace_atoms(self._design, target_signal, trace):
                assertions.extend(self._mine_target(trace, target_atom, clock, delay=0))
                if (
                    self._config.mine_next_cycle
                    and self._design.model.signals[target_signal].is_state
                ):
                    assertions.extend(
                        self._mine_target(trace, target_atom, clock, delay=1)
                    )
        return assertions

    # -- per-target mining -------------------------------------------------------

    def _mine_target(
        self, trace: Trace, target: Atom, clock: Optional[str], delay: int
    ) -> List[Assertion]:
        dataset = build_dataset(self._design, trace, target, delay=delay)
        if not dataset.features or dataset.num_rows < self._config.min_leaf_support:
            return []
        if dataset.positives == 0 or dataset.positives == dataset.num_rows:
            # The target is constant in the trace; a decision tree would learn
            # nothing beyond the trivial invariant, which HARM-style templates
            # already cover.
            return []
        rows = (1 << dataset.num_rows) - 1
        tree = self._grow(dataset, rows, depth=0, used=frozenset())
        paths = self._paths_to_true_leaves(tree, [])
        paths.sort(key=lambda item: (-item[1], len(item[0])))
        assertions = []
        for atoms, _support in paths[: self._config.max_assertions_per_target]:
            assertions.append(self._to_assertion(atoms, target, clock, delay))
        return assertions

    def _grow(
        self,
        dataset: MiningDataset,
        rows: int,
        depth: int,
        used: frozenset,
    ) -> _TreeNode:
        """Grow the subtree over ``rows``, a mask of dataset rows."""
        positives = (rows & dataset.label_mask).bit_count()
        support = rows.bit_count()
        purity = max(positives, support - positives) / support if support else 0.0
        majority = positives * 2 >= support

        if (
            depth >= self._config.max_depth
            or support < self._config.min_leaf_support
            or purity >= self._config.min_purity
        ):
            return _TreeNode(label=majority, support=support, purity=purity)

        best_index = self._best_split(dataset, rows, positives, support, used)
        if best_index is None:
            return _TreeNode(label=majority, support=support, purity=purity)

        atom = dataset.features[best_index]
        true_rows = rows & dataset.feature_masks[best_index]
        false_rows = rows & ~dataset.feature_masks[best_index]
        if not true_rows or not false_rows:
            return _TreeNode(label=majority, support=support, purity=purity)
        node = _TreeNode(atom=atom, support=support, purity=purity)
        node.true_branch = self._grow(dataset, true_rows, depth + 1, used | {best_index})
        node.false_branch = self._grow(dataset, false_rows, depth + 1, used | {best_index})
        return node

    def _best_split(
        self,
        dataset: MiningDataset,
        rows: int,
        positives: int,
        total: int,
        used: frozenset,
    ) -> Optional[int]:
        labels = dataset.label_mask
        base_entropy = _entropy(positives, total)
        best_gain = 1e-9
        best_index: Optional[int] = None
        for index, feature in enumerate(dataset.feature_masks):
            if index in used:
                continue
            true_rows = rows & feature
            true_total = true_rows.bit_count()
            false_total = total - true_total
            if not true_total or not false_total:
                continue
            true_positives = (true_rows & labels).bit_count()
            gain = base_entropy - (
                true_total / total * _entropy(true_positives, true_total)
                + false_total / total * _entropy(positives - true_positives, false_total)
            )
            if gain > best_gain:
                best_gain = gain
                best_index = index
        return best_index

    def _paths_to_true_leaves(
        self, node: _TreeNode, path: List[Atom]
    ) -> List[Tuple[List[Atom], int]]:
        if node.is_leaf:
            if (
                node.label
                and path
                and node.purity >= self._config.min_purity
                and node.support >= self._config.min_leaf_support
            ):
                return [(list(path), node.support)]
            return []
        results = []
        if node.true_branch is not None:
            results.extend(self._paths_to_true_leaves(node.true_branch, path + [node.atom]))
        if node.false_branch is not None:
            negated = _negate(node.atom)
            if negated is not None:
                results.extend(self._paths_to_true_leaves(node.false_branch, path + [negated]))
        return results

    def _to_assertion(
        self, atoms: Sequence[Atom], target: Atom, clock: Optional[str], delay: int
    ) -> Assertion:
        antecedent = [SequenceTerm(0, atom.expr()) for atom in atoms]
        consequent = [SequenceTerm(0, target.expr())]
        implication = NON_OVERLAPPED if delay else OVERLAPPED
        return Assertion(
            antecedent=antecedent,
            consequent=consequent,
            implication=implication,
            clock=clock,
            name="",
            source_text="goldmine",
        )


def _entropy(positives: int, total: int) -> float:
    """Binary entropy of a row set holding ``positives`` of ``total`` labels."""
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in (positives, total - positives):
        if count == 0:
            continue
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _negate(atom: Atom) -> Optional[Atom]:
    """Negate a boolean atom (only single-bit / binary-valued atoms)."""
    if atom.bit is not None or atom.value in (0, 1):
        return Atom(atom.signal, 1 - atom.value if atom.value in (0, 1) else 0, bit=atom.bit)
    return None
