"""One verdict per (tuple, step) for every query reading a stream.

Every step the learner emits is a conjunction of pose-window atoms
``abs(field - c) < w`` (Sec. 3.3.4): an interval on one field.  A
:class:`StepIndex` gathers the steps of all queries deployed on one stream
and, per field they reference, keeps a sorted array of interval endpoints
and one bitmask per region between two endpoints: the steps whose atoms on
that field hold there.  A tuple then costs one ``bisect`` per field and an
AND of the region masks; the result has a step's bit set exactly when the
step's predicate holds on the tuple.  Identical steps of different queries
share one bit.

Exactness
---------
The index answers exactly what the step's compiled closure answers, bit for
bit, because every endpoint is derived from the closure's own arithmetic
``op(abs(v - c), w)`` (or ``op(v, w)`` for ``field <op> literal``): ``v - c``
is monotone in ``v`` under IEEE rounding, so the closure's verdict can only
change where ``v - c`` crosses ``w`` or ``-w``.  Each such crossing is the
least float, in float order, passing a monotone test; it is found by
galloping from ``c ∓ w`` and bisecting over the floats' ordinals, never by
stepping one ulp at a time (``c - w`` can be ``2**62`` ordinals from the
crossing).  Between two crossings the verdict is constant, so it is read
off the closure's arithmetic at one point of each region.

What is indexed
---------------
A step is indexed when its predicate is a conjunction of atoms
:meth:`~repro.cep.expressions.Comparison.interval_atom` recognises — the
builtin-``abs`` pose window and ``field <op> literal`` — with ``op`` one of
``<``, ``<=``, ``>``, ``>=``, ``==`` and finite numeric literals (ints within
``2**53``, where int and float arithmetic agree), and when each of its
per-field terms is false at ``+inf``: ``bisect_right`` puts NaN in the same
(last) region as ``+inf``, and every atom is false on NaN.  Any other step —
a UDF, arithmetic over several fields, a disjunction, ``!=`` — keeps its
closure and has no bit.

A tuple whose indexed field is missing, is not an ``int``/``float``, or is
an int beyond ``2**53`` in magnitude gets no verdicts (:meth:`lookup` returns
``None``): every query then evaluates its closures, and raises exactly what
it raised without the index.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple
)

from repro.cep.expressions import BooleanOp, Comparison, Expression
from repro.cep.udf import FunctionRegistry

#: ``(field, centre or None, comparison, bound)``; see ``Comparison.interval_atom``.
Atom = Tuple[str, Optional[Any], Callable[[Any, Any], Any], Any]

#: Ints up to this magnitude convert to float exactly, so int and float
#: arithmetic on them agree with the float endpoints.
EXACT_INT = 2**53

#: Bit set in every region mask: the "gate" of a step without a bit, which
#: no lookup can rule out.
ALWAYS = 1

_MANTISSA = 1 << 52
_HIGHEST = 0x7FF << 52  # ordinal of +inf
_LOWEST = -_HIGHEST  # ordinal of -inf
_OPERATORS = frozenset({"<", "<=", ">", ">=", "=="})


def _ordinal(value: float) -> int:
    """The position of ``value`` among all floats; ``-0.0`` and ``0.0`` share 0."""
    if value < 0:
        return -_ordinal(-value)
    if value == 0:
        return 0
    if value == math.inf:
        return _HIGHEST
    mantissa, exponent = math.frexp(value)
    biased = exponent + 1022
    if biased <= 0:  # subnormal: a multiple of 2**-1074
        return int(math.ldexp(value, 1074))
    return (biased << 52) | (int(math.ldexp(mantissa, 53)) - _MANTISSA)


def _float(ordinal: int) -> float:
    """Inverse of :func:`_ordinal`."""
    if ordinal < 0:
        return -_float(-ordinal)
    biased, fraction = ordinal >> 52, ordinal & (_MANTISSA - 1)
    if biased == 0:
        return math.ldexp(fraction, -1074)
    if biased >= 0x7FF:
        return math.inf
    return math.ldexp(fraction + _MANTISSA, biased - 1075)


def _least(test: Callable[[float], bool], guess: float) -> float:
    """The least float passing ``test``, which is monotone in float order,
    false at ``-inf`` and true at ``+inf``: gallop from ``guess``, then bisect."""
    low = high = _ordinal(guess)
    step = 1
    if test(_float(high)):
        while test(_float(low)):
            high = low
            low = max(low - step, _LOWEST)
            step *= 2
    else:
        while not test(_float(high)):
            low = high
            high = min(high + step, _HIGHEST)
            step *= 2
    while high - low > 1:
        middle = (low + high) // 2
        if test(_float(middle)):
            high = middle
        else:
            low = middle
    return _float(high)


def _holds(atom: Atom, value: Any) -> bool:
    """The atom's verdict on ``value``, in the compiled closure's arithmetic."""
    _, center, operation, bound = atom
    return bool(operation(value if center is None else abs(value - center), bound))


def _reaches(shift: Any, threshold: Any, strict: bool) -> Callable[[float], bool]:
    """``v - shift > threshold`` (``strict``) or ``>=``, in the closure's arithmetic."""
    if strict:
        return lambda value: bool(value - shift > threshold)
    return lambda value: bool(value - shift >= threshold)


def _crossings(atom: Atom) -> Iterator[float]:
    """Every float where the atom's verdict can change: the least ``v`` with
    ``v - c >= t`` and with ``v - c > t``, for each threshold ``t``."""
    _, center, _, bound = atom
    shift = 0 if center is None else center
    for threshold in (bound,) if center is None else (bound, -bound):
        guess = float(shift + threshold)
        yield _least(_reaches(shift, threshold, strict=False), guess)
        yield _least(_reaches(shift, threshold, strict=True), guess)


def _exact(literal: Any) -> bool:
    kind = type(literal)
    if kind is int:
        return bool(-EXACT_INT < literal < EXACT_INT)
    return kind is float and math.isfinite(literal) and bool(abs(literal) < EXACT_INT)


def _conjuncts(predicate: Expression) -> Optional[List[Expression]]:
    if isinstance(predicate, BooleanOp):
        if predicate.operator != "and":
            return None
        operands: List[Expression] = []
        for operand in predicate.operands:
            inner = _conjuncts(operand)
            if inner is None:
                return None
            operands.extend(inner)
        return operands
    return [predicate]


def step_atoms(
    predicate: Expression, functions: Optional[FunctionRegistry]
) -> Optional[Tuple[Atom, ...]]:
    """The atoms of ``predicate`` when the index can answer it, else ``None``.

    Resolved against the same registry as the step's closure, at the same
    time, so a user-registered ``abs`` keeps the step on its closure.
    """
    conjuncts = _conjuncts(predicate)
    if conjuncts is None:
        return None
    atoms: List[Atom] = []
    for operand in conjuncts:
        if not isinstance(operand, Comparison) or operand.operator not in _OPERATORS:
            return None
        atom = operand.interval_atom(functions)
        if atom is None or not _exact(atom[3]) or not (atom[1] is None or _exact(atom[1])):
            return None
        atoms.append(atom)
    for term in _terms(atoms).values():
        if all(_holds(atom, math.inf) for atom in term):
            return None  # +inf shares its region with NaN
    return tuple(atoms)


def _terms(atoms: Sequence[Atom]) -> Dict[str, List[Atom]]:
    terms: Dict[str, List[Atom]] = {}
    for atom in atoms:
        terms.setdefault(atom[0], []).append(atom)
    return terms


#: One indexed field: name, sorted endpoints, one mask per region.
_Field = Tuple[str, List[float], List[int]]


class StepIndex:
    """The indexable steps of every query on one stream, answered by bisection.

    ``bits`` maps each distinct step (its atoms) to its bit; identical steps
    of different queries share one.  Built on the first tuple after the
    stream's queries changed, so deploys stay cheap.
    """

    def __init__(self, steps: Iterable[Tuple[Atom, ...]]) -> None:
        self.bits: Dict[Tuple[Atom, ...], int] = {}
        for atoms in steps:
            self.bits.setdefault(atoms, 1 << (len(self.bits) + 1))
        self.everything = ALWAYS
        for bit in self.bits.values():
            self.everything |= bit
        per_field: Dict[str, List[Tuple[int, List[Atom]]]] = {}
        for atoms, bit in self.bits.items():
            for name, term in _terms(atoms).items():
                per_field.setdefault(name, []).append((bit, term))
        self.fields: Tuple[_Field, ...] = tuple(
            self._build(name, terms) for name, terms in sorted(per_field.items())
        )

    def _build(self, name: str, terms: List[Tuple[int, List[Atom]]]) -> _Field:
        """Endpoints and region masks of one field, from XOR toggles: a
        term's bit flips at each endpoint where its verdict changes."""
        referencing = first = 0
        toggles: Dict[float, int] = {}
        for bit, term in terms:
            referencing |= bit
            cuts = sorted({cut for atom in term for cut in _crossings(atom)})
            verdict = all(_holds(atom, -math.inf) for atom in term)
            if verdict:
                first |= bit
            for cut in cuts:
                now = all(_holds(atom, cut) for atom in term)
                if now != verdict:
                    toggles[cut] = toggles.get(cut, 0) ^ bit
                    verdict = now
        unaffected = self.everything & ~referencing
        endpoints = sorted(cut for cut, flips in toggles.items() if flips)
        masks = [first | unaffected]
        for cut in endpoints:
            masks.append(masks[-1] ^ toggles[cut])
        return name, endpoints, masks

    def lookup(self, record: Mapping[str, Any]) -> Optional[int]:
        """The bits of every indexed step holding on ``record``, plus
        :data:`ALWAYS`; ``None`` when an indexed field is missing or not an
        exactly comparable number (the closures decide then)."""
        mask = self.everything
        try:
            for name, endpoints, masks in self.fields:
                value = record[name]
                kind = value.__class__
                if kind is not float and (kind is not int or not -EXACT_INT <= value <= EXACT_INT):
                    return None
                mask &= masks[bisect_right(endpoints, value)]
        except KeyError:
            return None
        return mask
