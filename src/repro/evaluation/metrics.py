"""Detection quality metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


def precision(true_positives: int, false_positives: int) -> float:
    """Fraction of reported detections that were correct (1.0 when nothing
    was reported — no spurious detections is a perfect precision)."""
    total = true_positives + false_positives
    if total == 0:
        return 1.0
    return true_positives / total


def recall(true_positives: int, false_negatives: int) -> float:
    """Fraction of performed gestures that were detected (1.0 when nothing
    was performed)."""
    total = true_positives + false_negatives
    if total == 0:
        return 1.0
    return true_positives / total


def f1_score(precision_value: float, recall_value: float) -> float:
    """Harmonic mean of precision and recall."""
    if precision_value + recall_value == 0:
        return 0.0
    return 2 * precision_value * recall_value / (precision_value + recall_value)


@dataclass
class ClassificationMetrics:
    """Detection counts and derived quality metrics for one gesture."""

    gesture: str
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def precision(self) -> float:
        return precision(self.true_positives, self.false_positives)

    @property
    def recall(self) -> float:
        return recall(self.true_positives, self.false_negatives)

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tabular reporting."""
        return {
            "gesture": self.gesture,
            "tp": self.true_positives,
            "fp": self.false_positives,
            "fn": self.false_negatives,
            "precision": round(self.precision, 3),
            "recall": round(self.recall, 3),
            "f1": round(self.f1, 3),
        }

    def __repr__(self) -> str:
        return (
            f"ClassificationMetrics({self.gesture}: P={self.precision:.2f} "
            f"R={self.recall:.2f} F1={self.f1:.2f})"
        )


class ConfusionMatrix:
    """Counts of (performed gesture → detected gesture) pairs.

    The special detected label ``"(none)"`` counts performances that
    produced no detection at all.
    """

    NONE_LABEL = "(none)"

    def __init__(self, gestures: Sequence[str]) -> None:
        self.gestures = list(gestures)
        self._counts: Dict[Tuple[str, str], int] = {}

    def record(self, performed: str, detected: Optional[str]) -> None:
        detected_label = detected if detected is not None else self.NONE_LABEL
        key = (performed, detected_label)
        self._counts[key] = self._counts.get(key, 0) + 1

    def count(self, performed: str, detected: Optional[str]) -> int:
        detected_label = detected if detected is not None else self.NONE_LABEL
        return self._counts.get((performed, detected_label), 0)

    def row(self, performed: str) -> Dict[str, int]:
        labels = self.gestures + [self.NONE_LABEL]
        return {label: self.count(performed, label) for label in labels}

    def accuracy(self) -> float:
        """Fraction of performances whose first detection was the right one."""
        total = sum(self._counts.values())
        if total == 0:
            return 0.0
        correct = sum(
            count for (performed, detected), count in self._counts.items()
            if performed == detected
        )
        return correct / total

    def to_table(self) -> List[List[str]]:
        """Rows of a printable table: header then one row per gesture."""
        labels = self.gestures + [self.NONE_LABEL]
        table = [["performed \\ detected"] + labels]
        for performed in self.gestures:
            row = self.row(performed)
            table.append([performed] + [str(row[label]) for label in labels])
        return table

    def __repr__(self) -> str:
        return f"ConfusionMatrix(accuracy={self.accuracy():.2f})"
