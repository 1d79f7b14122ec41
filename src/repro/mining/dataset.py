"""Trace-derived datasets for assertion mining.

Both miners (GoldMine-style and HARM-style) operate on tabular data extracted
from simulation traces: rows are clock cycles, columns are *atomic
propositions* over candidate signals (``sig == value`` for small-domain
signals, ``sig[bit] == value`` for wide ones), and the label column is the
proposition being explained (e.g. ``gnt1 == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis import coi_features
from ..hdl import ast
from ..hdl.design import Design
from ..sim.trace import Trace

#: Signals with at most this many distinct values get equality atoms per value.
_MAX_ENUM_VALUES = 8
#: Wide signals contribute at most this many per-bit atoms.
_MAX_BIT_ATOMS = 4


@dataclass(frozen=True)
class Atom:
    """An atomic proposition over one design signal."""

    signal: str
    value: int
    bit: Optional[int] = None

    def expr(self) -> ast.Expr:
        """Render the atom as a Verilog boolean expression."""
        if self.bit is None:
            return ast.Binary("==", ast.Identifier(self.signal), ast.Number(self.value))
        return ast.Binary(
            "==",
            ast.BitSelect(ast.Identifier(self.signal), ast.Number(self.bit)),
            ast.Number(self.value),
        )

    def evaluate(self, row: Dict[str, int]) -> bool:
        raw = row.get(self.signal, 0)
        if self.bit is not None:
            raw = (raw >> self.bit) & 1
        return raw == self.value

    def __str__(self) -> str:
        return str(self.expr())


@dataclass
class MiningDataset:
    """Feature matrix for one target proposition, stored as bit columns.

    Row ``r`` is trace cycle ``r``: bit ``r`` of ``feature_masks[i]`` is the
    value of feature ``i`` there, and bit ``r`` of ``label_mask`` the target's
    value ``delay`` cycles later.
    """

    design_name: str
    target: Atom
    features: List[Atom]
    num_rows: int = 0
    feature_masks: List[int] = field(default_factory=list)
    label_mask: int = 0
    delay: int = 0

    @property
    def positives(self) -> int:
        return self.label_mask.bit_count()

    def feature_column(self, index: int) -> List[bool]:
        return _column(self.feature_masks[index], self.num_rows)

    def labels(self) -> List[bool]:
        return _column(self.label_mask, self.num_rows)


def _column(mask: int, length: int) -> List[bool]:
    return [bool(mask >> row & 1) for row in range(length)]


def candidate_atoms(design: Design, signal: str) -> List[Atom]:
    """Enumerate the equality atoms used as features/targets for one signal."""
    model = design.model
    width = model.signals[signal].width
    if width == 1:
        return [Atom(signal, 0), Atom(signal, 1)]
    domain = min(1 << width, _MAX_ENUM_VALUES)
    if (1 << width) <= _MAX_ENUM_VALUES:
        return [Atom(signal, value) for value in range(domain)]
    atoms = []
    for bit in range(min(width, _MAX_BIT_ATOMS)):
        atoms.append(Atom(signal, 0, bit=bit))
        atoms.append(Atom(signal, 1, bit=bit))
    return atoms


def trace_atoms(design: Design, signal: str, trace: Trace) -> List[Atom]:
    """Like :func:`candidate_atoms` but restricted to values seen in the trace."""
    model = design.model
    width = model.signals[signal].width
    observed = trace.distinct_values(signal)
    if width == 1 or len(observed) <= _MAX_ENUM_VALUES:
        return [Atom(signal, value) for value in observed]
    atoms = []
    for bit in range(min(width, _MAX_BIT_ATOMS)):
        atoms.append(Atom(signal, 0, bit=bit))
        atoms.append(Atom(signal, 1, bit=bit))
    return atoms


def build_dataset(
    design: Design,
    trace: Trace,
    target: Atom,
    feature_signals: Optional[Sequence[str]] = None,
    delay: int = 0,
) -> MiningDataset:
    """Build the feature matrix explaining ``target`` from ``trace``.

    ``delay`` shifts the target ``delay`` cycles after the features, producing
    data for next-cycle (``|=>``-style) assertions on registered targets.
    """
    if feature_signals is None:
        feature_signals = coi_features(design, target.signal)
    features: List[Atom] = []
    for name in feature_signals:
        if name == target.signal:
            continue
        features.extend(trace_atoms(design, name, trace))

    num_rows = max(trace.num_cycles - delay, 0)
    return MiningDataset(
        design_name=design.name,
        target=target,
        features=features,
        num_rows=num_rows,
        feature_masks=[_atom_mask(atom, trace, 0, num_rows) for atom in features],
        label_mask=_atom_mask(target, trace, delay, num_rows),
        delay=delay,
    )


def _atom_mask(atom: Atom, trace: Trace, start: int, count: int) -> int:
    """Bit ``r`` set when ``atom`` holds at cycle ``start + r`` of ``trace``.

    Same semantics as :meth:`Atom.evaluate` on ``trace.row``: a signal the
    trace does not record reads as 0.
    """
    if atom.signal not in trace.signals:
        return (1 << count) - 1 if atom.evaluate({}) else 0
    values = trace.data[atom.signal][start:start + count]
    if atom.bit is not None:
        values = [(raw >> atom.bit) & 1 for raw in values]
    text = "".join(["1" if raw == atom.value else "0" for raw in reversed(values)])
    return int(text or "0", 2)


def mining_targets(design: Design) -> List[str]:
    """Signals worth explaining: primary outputs first, then state registers."""
    model = design.model
    targets = [name for name in model.outputs if name not in model.clocks]
    for name in model.state_regs:
        if name not in targets:
            targets.append(name)
    return targets
