"""Conditional-probability scores of evidential occupancy predictions.

For each visibility region (visible / hidden) and each target class
(free / occupied) the table reports the frequency of the predicted argmax
label being free, occupied, or unknown, plus an independently reported
conflict rate (|b_f - b_o| <= 0.2 with u <= 0.5: a vacuous prediction, such
as Ray-ISM's where no detection reaches, is not counted as conflict).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from evgrid.errors import DomainError

CONFLICT_BAND = 0.2
REGIONS = ("visible", "hidden")
TARGETS = ("free", "occupied")
_PRED_KEYS = ("p_f", "p_o", "p_u", "p_c")


@dataclass
class ScoreTable:
    """Per (region, target) percentages and the cell counts behind them.

    ``entries[(region, target)]`` maps the four score names to percentages,
    or is None when no cell satisfied the condition.
    """

    entries: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def get(self, region: str, target: str):
        return self.entries[(region, target)]


class ScoreAccumulator:
    """Streaming accumulation of score counts over many samples."""

    def __init__(self):
        # counts[(region, target)] = [n_pred_f, n_pred_o, n_pred_u, n_conflict, n_total]
        self.counts = {(r, t): np.zeros(5, dtype=np.int64) for r in REGIONS for t in TARGETS}

    def add(self, pred: np.ndarray, target: np.ndarray, visible: np.ndarray) -> None:
        """Accumulate one sample; pred/target are (3, H, W), visible (H, W)."""
        pred = np.asarray(pred, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        visible = np.asarray(visible).astype(bool)
        if pred.shape != target.shape or pred.shape[1:] != visible.shape:
            raise DomainError(
                f"shape mismatch: pred {pred.shape}, target {target.shape}, mask {visible.shape}")
        b_f, b_o, u = pred
        peak = np.maximum(np.maximum(b_f, b_o), u)
        # ties resolve toward unknown (conservative)
        label_f = (b_f >= peak) & (u < peak) & (b_f > b_o)
        label_o = (b_o >= peak) & (u < peak) & (b_o > b_f)
        label_u = ~label_f & ~label_o
        conflict = (np.abs(b_f - b_o) <= CONFLICT_BAND) & (u <= 0.5)
        tgt_free = target[0] >= 0.999
        tgt_occ = target[1] >= 0.999
        for region, region_mask in (("visible", visible), ("hidden", ~visible)):
            for tname, tmask in (("free", tgt_free), ("occupied", tgt_occ)):
                sel = region_mask & tmask
                counts = [(m & sel).sum() for m in (label_f, label_o, label_u, conflict, sel)]
                self.counts[(region, tname)] += counts

    def table(self) -> ScoreTable:
        table = ScoreTable()
        for key, c in self.counts.items():
            table.counts[key] = int(c[4])
            if c[4] == 0:
                table.entries[key] = None
                continue
            table.entries[key] = dict(zip(_PRED_KEYS, (100.0 * c[:4] / c[4]).tolist()))
        return table


_COLUMNS = [(t, k) for t in TARGETS for k in _PRED_KEYS]
_HEADERS = ["p(f|f)", "p(o|f)", "p(u|f)", "p(c|f)",
            "p(f|o)", "p(o|o)", "p(u|o)", "p(c|o)"]


def render_table(tables: list[tuple[str, ScoreTable]]) -> tuple[str, str]:
    """Render per-model score tables as (text report, CSV).

    One row per (model, region); columns follow the free-target block then
    the occupied-target block, each ending with the conflict rate.
    """
    text = io.StringIO()
    csv_out = io.StringIO()
    csv_out.write("model,region," + ",".join(_HEADERS) + ",n_free,n_occupied\n")
    for region in REGIONS:
        text.write(f"scores for {region} area [%]\n")
        text.write(f"{'model':<12}" + "".join(f"{h:>8}" for h in _HEADERS) + "\n")
        for name, table in tables:
            cells_text, cells_csv = [], []
            for tname, key in _COLUMNS:
                entry = table.get(region, tname)
                if entry is None:
                    cells_text.append(f"{'-':>8}")
                    cells_csv.append("")
                else:
                    cells_text.append(f"{entry[key]:>8.1f}")
                    cells_csv.append(f"{entry[key]:.6f}")
            text.write(f"{name:<12}" + "".join(cells_text) + "\n")
            csv_out.write(
                f"{name},{region}," + ",".join(cells_csv)
                + f",{table.counts[(region, 'free')]},{table.counts[(region, 'occupied')]}\n")
        text.write("\n")
    return text.getvalue(), csv_out.getvalue()
