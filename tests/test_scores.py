import numpy as np
import pytest

from evgrid.errors import DomainError
from evgrid.scores import ScoreAccumulator, render_table


def compute_scores(pred, target, visible):
    """Score table of a single prediction."""
    acc = ScoreAccumulator()
    acc.add(pred, target, visible)
    return acc.table()


def _stack(cells):
    """(3, 1, N) prediction/target array from a list of 3-vectors."""
    return np.array(cells, dtype=np.float64).T[:, None, :]


class TestLabels:
    def test_perfect_predictor(self):
        pred = _stack([(1, 0, 0), (0, 1, 0)])
        target = _stack([(1, 0, 0), (0, 1, 0)])
        visible = np.ones((1, 2))
        t = compute_scores(pred, target, visible)
        assert t.get("visible", "free")["p_f"] == 100.0
        assert t.get("visible", "occupied")["p_o"] == 100.0
        assert t.get("visible", "free")["p_c"] == 0.0
        assert t.get("visible", "occupied")["p_c"] == 0.0

    def test_all_unknown_predictor(self):
        pred = _stack([(0, 0, 1), (0, 0, 1)])
        target = _stack([(1, 0, 0), (0, 1, 0)])
        visible = np.ones((1, 2))
        t = compute_scores(pred, target, visible)
        for tgt in ("free", "occupied"):
            assert t.get("visible", tgt)["p_u"] == 100.0
            # the vacuous prediction is not counted as conflict under the guard
            assert t.get("visible", tgt)["p_c"] == 0.0

    def test_ties_resolve_to_unknown(self):
        pred = _stack([(0.4, 0.4, 0.2), (0.5, 0.0, 0.5)])
        target = _stack([(1, 0, 0), (1, 0, 0)])
        t = compute_scores(pred, target, np.ones((1, 2)))
        assert t.get("visible", "free")["p_u"] == 100.0

    def test_three_cell_hand_case(self):
        pred = _stack([(0.7, 0.1, 0.2), (0.3, 0.3, 0.4), (0.4, 0.5, 0.1)])
        target = _stack([(1, 0, 0), (1, 0, 0), (0, 1, 0)])
        t = compute_scores(pred, target, np.ones((1, 3)))
        free = t.get("visible", "free")
        occ = t.get("visible", "occupied")
        assert free["p_f"] == 50.0 and free["p_u"] == 50.0 and free["p_o"] == 0.0
        assert free["p_c"] == 50.0
        assert occ["p_o"] == 100.0 and occ["p_c"] == 100.0

    def test_labels_partition(self):
        rng = np.random.default_rng(0)
        pred = rng.dirichlet(np.ones(3), size=(4, 16)).transpose(2, 0, 1)
        target = np.zeros_like(pred)
        target[0] = 1.0
        t = compute_scores(pred, target, np.ones((4, 16)))
        e = t.get("visible", "free")
        assert e["p_f"] + e["p_o"] + e["p_u"] == pytest.approx(100.0)


class TestRegionsAndTargets:
    def test_visibility_split(self):
        pred = _stack([(1, 0, 0), (0, 0, 1)])
        target = _stack([(1, 0, 0), (1, 0, 0)])
        visible = np.array([[1.0, 0.0]])
        t = compute_scores(pred, target, visible)
        assert t.get("visible", "free")["p_f"] == 100.0
        assert t.get("hidden", "free")["p_u"] == 100.0
        assert t.counts[("visible", "free")] == 1
        assert t.counts[("hidden", "free")] == 1

    def test_conflict_and_unknown_targets_excluded(self):
        pred = _stack([(1, 0, 0), (1, 0, 0)])
        target = _stack([(0.5, 0.5, 0.0), (0, 0, 1)])
        t = compute_scores(pred, target, np.ones((1, 2)))
        assert t.get("visible", "free") is None
        assert t.get("visible", "occupied") is None

    def test_streaming_matches_single_pass(self):
        rng = np.random.default_rng(1)
        preds = rng.dirichlet(np.ones(3), size=(2, 5, 5)).transpose(0, 3, 1, 2)
        targets = np.zeros_like(preds)
        targets[:, 0, :, :3] = 1.0
        targets[:, 1, :, 3:] = 1.0
        masks = rng.integers(0, 2, size=(2, 5, 5)).astype(float)
        stream = ScoreAccumulator()
        for i in range(2):
            stream.add(preds[i], targets[i], masks[i])
        merged = ScoreAccumulator()
        merged.add(np.concatenate(list(preds), axis=2),
                   np.concatenate(list(targets), axis=2),
                   np.concatenate(list(masks), axis=1))
        for key in stream.counts:
            assert np.array_equal(stream.counts[key], merged.counts[key])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            compute_scores(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)), np.zeros((3, 3)))


class TestRendering:
    def _tables(self):
        pred = _stack([(0.7, 0.1, 0.2), (0.4, 0.5, 0.1)])
        target = _stack([(1, 0, 0), (0, 1, 0)])
        return [("model-a", compute_scores(pred, target, np.ones((1, 2))))]

    def test_text_layout(self):
        text, _ = render_table(self._tables())
        assert "scores for visible area [%]" in text
        assert "scores for hidden area [%]" in text
        header_cols = ["p(f|f)", "p(o|f)", "p(u|f)", "p(c|f)",
                       "p(f|o)", "p(o|o)", "p(u|o)", "p(c|o)"]
        for col in header_cols:
            assert col in text
        # column order is the free block then the occupied block
        idx = [text.index(c) for c in header_cols]
        assert idx == sorted(idx)
        assert "model-a" in text

    def test_empty_condition_rendered_as_dash(self):
        text, csv_out = render_table(self._tables())
        hidden_lines = text.split("scores for hidden area [%]")[1]
        assert "-" in hidden_lines
        hidden_csv = [l for l in csv_out.splitlines() if l.startswith("model-a,hidden")][0]
        assert ",,," in hidden_csv

    def test_csv_header_and_counts(self):
        _, csv_out = render_table(self._tables())
        lines = csv_out.splitlines()
        assert lines[0] == ("model,region,p(f|f),p(o|f),p(u|f),p(c|f),"
                            "p(f|o),p(o|o),p(u|o),p(c|o),n_free,n_occupied")
        visible = [l for l in lines if l.startswith("model-a,visible")][0]
        assert visible.endswith(",1,1")

    def test_multiple_models_one_row_each_per_region(self):
        tables = self._tables() + [("model-b", self._tables()[0][1])]
        text, csv_out = render_table(tables)
        assert text.count("model-a") == 2 and text.count("model-b") == 2
        assert len([l for l in csv_out.splitlines()[1:] if l]) == 4
