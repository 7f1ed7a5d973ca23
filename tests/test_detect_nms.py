"""Unit tests for detection types, IoU and non-maximum suppression."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.detect import Detection, box_iou, non_maximum_suppression
from repro.errors import ParameterError


def det(top=0, left=0, h=10, w=10, score=1.0, scale=1.0):
    return Detection(top=top, left=left, height=h, width=w,
                     score=score, scale=scale)


class TestDetection:
    def test_derived_geometry(self):
        d = det(top=5, left=3, h=10, w=4)
        assert d.bottom == 15
        assert d.right == 7
        assert d.area == 40
        assert d.center if hasattr(d, "center") else True

    def test_rejects_zero_size(self):
        with pytest.raises(ParameterError, match="positive size"):
            det(h=0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ParameterError, match="scale"):
            det(scale=0.0)

    @pytest.mark.parametrize("field", ["top", "left", "h", "w", "score",
                                       "scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ParameterError, match="finite"):
            det(**{field: value})

    def test_rejects_nan_box(self):
        # nan <= 0 is False, so a NaN box once slipped past the size
        # check; its NaN score then sorted first in NMS.
        with pytest.raises(ParameterError, match="finite"):
            Detection(math.nan, 0, math.nan, 10, math.nan, 1.0)


class TestBoxIou:
    def test_identical_boxes(self):
        assert box_iou(det(), det()) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert box_iou(det(), det(top=100, left=100)) == 0.0

    def test_touching_boxes_zero(self):
        assert box_iou(det(), det(left=10)) == 0.0

    def test_half_overlap(self):
        a = det(w=10)
        b = det(left=5, w=10)
        # intersection 5x10=50, union 150.
        assert box_iou(a, b) == pytest.approx(50.0 / 150.0)

    def test_symmetric(self):
        a = det(top=2, left=3, h=8, w=6)
        b = det(top=5, left=4, h=10, w=10)
        assert box_iou(a, b) == pytest.approx(box_iou(b, a))

    def test_contained_box(self):
        outer = det(h=20, w=20)
        inner = det(top=5, left=5, h=10, w=10)
        assert box_iou(outer, inner) == pytest.approx(100.0 / 400.0)


class TestNms:
    def test_keeps_best_of_cluster(self):
        cluster = [det(score=0.5), det(top=1, score=0.9), det(left=1, score=0.7)]
        kept = non_maximum_suppression(cluster, iou_threshold=0.3)
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_keeps_distant_boxes(self):
        boxes = [det(score=0.9), det(top=100, left=100, score=0.5)]
        kept = non_maximum_suppression(boxes)
        assert len(kept) == 2

    def test_result_sorted_by_score(self):
        boxes = [det(top=100, score=0.2), det(score=0.9), det(left=200, score=0.5)]
        kept = non_maximum_suppression(boxes)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)

    def test_max_detections_cap(self):
        boxes = [det(top=i * 100, score=1.0 - i * 0.1) for i in range(5)]
        kept = non_maximum_suppression(boxes, max_detections=2)
        assert len(kept) == 2

    def test_zero_cap_returns_nothing(self):
        boxes = [det(top=i * 100, score=1.0 - i * 0.1) for i in range(3)]
        assert non_maximum_suppression(boxes, max_detections=0) == []

    def test_empty_input(self):
        assert non_maximum_suppression([]) == []

    def test_threshold_one_keeps_all_nonidentical(self):
        boxes = [det(score=0.9), det(top=1, score=0.8)]
        kept = non_maximum_suppression(boxes, iou_threshold=1.0)
        assert len(kept) == 2

    def test_threshold_zero_removes_any_overlap(self):
        boxes = [det(score=0.9), det(top=9, score=0.8), det(top=50, score=0.7)]
        kept = non_maximum_suppression(boxes, iou_threshold=0.0)
        assert len(kept) == 2

    def test_rejects_bad_threshold(self):
        with pytest.raises(ParameterError, match="iou_threshold"):
            non_maximum_suppression([], iou_threshold=1.5)

    def test_rejects_negative_cap(self):
        with pytest.raises(ParameterError, match="max_detections"):
            non_maximum_suppression([], max_detections=-1)

    def test_idempotent(self):
        boxes = [det(score=0.9), det(top=3, score=0.5), det(top=200, score=0.4)]
        once = non_maximum_suppression(boxes, iou_threshold=0.3)
        twice = non_maximum_suppression(once, iou_threshold=0.3)
        assert once == twice


def scalar_nms(detections, iou_threshold, max_detections=None):
    """Reference greedy NMS: one box_iou call per surviving pair."""
    remaining = sorted(detections, key=lambda d: d.score, reverse=True)
    kept = []
    while remaining and (max_detections is None
                         or len(kept) < max_detections):
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            d for d in remaining if box_iou(best, d) <= iou_threshold
        ]
    return kept


# Coordinates on a small grid so that identical, nested and
# edge-touching boxes are common; scores from a short list so that ties
# are too.
_coord = st.one_of(st.integers(0, 24), st.floats(0.0, 24.0))
_size = st.one_of(st.integers(1, 12), st.floats(0.5, 12.0))
_score = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                   st.floats(-5.0, 5.0))
_box = st.builds(det, top=_coord, left=_coord, h=_size, w=_size,
                 score=_score)


@st.composite
def _candidates(draw):
    boxes = draw(st.lists(_box, max_size=25))
    if boxes:
        # Exact duplicates, as separate objects.
        for i in draw(st.lists(st.integers(0, len(boxes) - 1),
                               max_size=5)):
            b = boxes[i]
            boxes.append(det(b.top, b.left, b.height, b.width, b.score))
        boxes = draw(st.permutations(boxes))
    return boxes


class TestNmsMatchesScalarLoop:
    @given(boxes=_candidates(),
           thr=st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                         st.floats(0.0, 1.0)),
           cap=st.one_of(st.none(), st.integers(0, 8)))
    @settings(max_examples=300, deadline=None)
    def test_same_boxes_same_order(self, boxes, thr, cap):
        got = non_maximum_suppression(boxes, iou_threshold=thr,
                                      max_detections=cap)
        want = scalar_nms(boxes, thr, cap)
        assert [id(d) for d in got] == [id(d) for d in want]

    @given(a=_box, b=_box)
    @settings(max_examples=300, deadline=None)
    def test_threshold_at_the_pair_iou(self, a, b):
        # A threshold equal to the pair's box_iou keeps both boxes and
        # one ulp below it drops the lower-scored one, so any rounding
        # difference from box_iou's arithmetic shows.
        iou = box_iou(a, b)
        # (Rounding can put a near-total overlap a hair above 1.0.)
        thresholds = {iou, math.nextafter(iou, 0.0)}
        for thr in (t for t in thresholds if 0.0 <= t <= 1.0):
            got = non_maximum_suppression([a, b], iou_threshold=thr)
            want = scalar_nms([a, b], thr)
            assert [id(d) for d in got] == [id(d) for d in want]

    def test_edge_touching_boxes_survive_zero_threshold(self):
        boxes = [det(score=0.9), det(left=10, score=0.8),
                 det(top=10, score=0.7), det(top=9, left=9, score=0.6)]
        got = non_maximum_suppression(boxes, iou_threshold=0.0)
        assert got == scalar_nms(boxes, 0.0) == boxes[:3]

    def test_equal_scores_keep_input_order(self):
        boxes = [det(left=i * 5, score=1.0) for i in range(4)]
        got = non_maximum_suppression(boxes, iou_threshold=0.3)
        assert got == scalar_nms(boxes, 0.3) == [boxes[0], boxes[2]]

    def test_identical_boxes_at_threshold_one(self):
        boxes = [det(score=1.0), det(score=0.5), det(score=0.5)]
        got = non_maximum_suppression(boxes, iou_threshold=1.0)
        assert [id(d) for d in got] == [id(d) for d in boxes]
