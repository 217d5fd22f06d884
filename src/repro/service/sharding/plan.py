"""Geographic shard plans: partitioning campaigns and traffic by region.

Under the paper's sigmoid accuracy model a worker is eligible for a task
only within a bounded distance (``d_max`` plus a logistic correction), so a
campaign whose tasks sit in one city can only ever use workers near that
city.  A :class:`ShardPlan` exploits this: it splits the serving region into
a grid of rectangular cells (one *geo shard* per cell) plus one *overflow
shard*, and pins each campaign to the single cell that contains its entire
**reach box** — the bounding box of its task locations expanded by the
maximum eligibility radius.  Campaigns whose reach spans cells (or whose
accuracy model admits no distance bound at all) fall back to the overflow
shard, which sees the full worker stream.

The pinning rule is what makes sharded routing *exact* rather than
approximate: every worker eligible for a pinned campaign necessarily lies
inside the campaign's reach box, hence inside its cell — so routing each
arrival to the shard covering its location (plus the overflow shard) loses
no eligible delivery.  See ``docs/dispatch.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.candidates import tasks_reach_bounds
from repro.core.instance import LTCInstance
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point


@dataclass(frozen=True)
class ShardPlan:
    """A ``cols x rows`` grid of geo shards plus one overflow shard.

    Shard ids ``0 .. cols*rows - 1`` are grid cells in row-major order
    (west-to-east, then south-to-north); id ``cols * rows`` is the overflow
    shard, which has no cell and sees the full worker stream.

    Parameters
    ----------
    bounds:
        The serving region covered by the grid.  Campaigns whose reach box
        pokes outside it are pinned to the overflow shard.
    cols / rows:
        Grid dimensions.  ``cols = rows = 1`` degenerates to a single geo
        shard covering the whole region (plus the overflow shard), which is
        the honest baseline configuration for scaling comparisons.
    """

    bounds: BoundingBox
    cols: int = 1
    rows: int = 1

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError("a shard plan needs at least a 1x1 grid")
        if self.bounds.width <= 0 or self.bounds.height <= 0:
            raise ValueError("shard plan bounds must have positive area")

    # -------------------------------------------------------------- geometry

    @property
    def num_geo_shards(self) -> int:
        """Number of grid-cell shards (excludes the overflow shard)."""
        return self.cols * self.rows

    @property
    def overflow_shard(self) -> int:
        """Id of the overflow shard (always the last id)."""
        return self.cols * self.rows

    @property
    def num_shards(self) -> int:
        """Total shard count: grid cells plus the overflow shard."""
        return self.cols * self.rows + 1

    @property
    def shard_ids(self) -> List[int]:
        """All shard ids, geo shards first, overflow last."""
        return list(range(self.num_shards))

    def cell(self, shard_id: int) -> Optional[BoundingBox]:
        """The rectangle a geo shard covers; ``None`` for the overflow shard."""
        if not 0 <= shard_id <= self.overflow_shard:
            raise ValueError(
                f"shard id {shard_id} out of range 0..{self.overflow_shard}"
            )
        if shard_id == self.overflow_shard:
            return None
        col = shard_id % self.cols
        row = shard_id // self.cols
        cell_w = self.bounds.width / self.cols
        cell_h = self.bounds.height / self.rows
        return BoundingBox(
            self.bounds.min_x + col * cell_w,
            self.bounds.min_y + row * cell_h,
            self.bounds.min_x + (col + 1) * cell_w,
            self.bounds.min_y + (row + 1) * cell_h,
        )

    def shard_of_point(self, point: Point) -> int:
        """The geo shard whose cell contains ``point``.

        Points outside the plan bounds are clamped to the nearest cell —
        harmless for routing, because a worker outside the bounds is outside
        every pinned campaign's reach box and therefore eligible for none of
        them (the overflow shard, which such a worker may still serve, is
        routed separately).
        """
        clamped = self.bounds.clamp(point)
        col = min(
            int((clamped.x - self.bounds.min_x) / self.bounds.width * self.cols),
            self.cols - 1,
        )
        row = min(
            int((clamped.y - self.bounds.min_y) / self.bounds.height * self.rows),
            self.rows - 1,
        )
        return row * self.cols + col

    def shard_for_bounds(self, box: Optional[BoundingBox]) -> int:
        """The shard a campaign with reach box ``box`` pins to.

        A geo shard iff the box fits entirely inside one grid cell;
        otherwise (spanning boxes, boxes poking outside the plan bounds, or
        ``box is None`` for unbounded reach) the overflow shard.
        """
        if box is None:
            return self.overflow_shard
        if not (
            self.bounds.min_x <= box.min_x
            and self.bounds.min_y <= box.min_y
            and box.max_x <= self.bounds.max_x
            and box.max_y <= self.bounds.max_y
        ):
            return self.overflow_shard
        low = self.shard_of_point(Point(box.min_x, box.min_y))
        high = self.shard_of_point(Point(box.max_x, box.max_y))
        if low != high:
            return self.overflow_shard
        cell = self.cell(low)
        assert cell is not None
        # shard_of_point assigns border points to the higher cell only when
        # clamping says so; re-check containment to be explicit about edges.
        if not (
            cell.min_x <= box.min_x
            and cell.min_y <= box.min_y
            and box.max_x <= cell.max_x
            and box.max_y <= cell.max_y
        ):
            return self.overflow_shard
        return low

    def shard_for_instance(self, instance: LTCInstance) -> int:
        """The shard ``instance`` pins to (reach box containment rule)."""
        return self.shard_for_bounds(tasks_reach_bounds(instance))

    # ------------------------------------------------------------- factories

    @classmethod
    def for_region(
        cls, bounds: BoundingBox, cols: int = 1, rows: Optional[int] = None
    ) -> "ShardPlan":
        """A plan gridding ``bounds`` into ``cols x rows`` cells.

        ``rows`` defaults to ``cols`` (a square grid).
        """
        return cls(bounds=bounds, cols=cols, rows=cols if rows is None else rows)

    @classmethod
    def for_campaigns(
        cls,
        instances: Iterable[LTCInstance],
        cols: int = 1,
        rows: Optional[int] = None,
    ) -> "ShardPlan":
        """A plan whose bounds cover every campaign's reach box.

        Campaigns with unbounded reach contribute nothing to the bounds
        (they will pin to the overflow shard regardless).  Raises
        ``ValueError`` when no campaign has a bounded reach — there is
        nothing to grid.
        """
        boxes = [
            box
            for box in (tasks_reach_bounds(instance) for instance in instances)
            if box is not None
        ]
        if not boxes:
            raise ValueError(
                "no campaign has a geographically bounded reach; "
                "a shard plan needs at least one sigmoid-model campaign"
            )
        bounds = BoundingBox(
            min(box.min_x for box in boxes),
            min(box.min_y for box in boxes),
            max(box.max_x for box in boxes),
            max(box.max_y for box in boxes),
        )
        return cls(bounds=bounds, cols=cols, rows=cols if rows is None else rows)
