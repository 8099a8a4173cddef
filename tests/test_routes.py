"""Tests for route trees, routing solutions, congestion and the area model."""

import pytest

from repro.grid.area import AreaReport, routing_area
from repro.grid.congestion import CongestionMap, RegionUsage
from repro.grid.nets import Net, Netlist, Pin
from repro.grid.regions import HORIZONTAL, VERTICAL, RoutingGrid
from repro.grid.routes import RouteTree, RoutingSolution, normalize_edge


@pytest.fixture
def grid():
    return RoutingGrid(
        num_cols=3,
        num_rows=3,
        chip_width=300.0,
        chip_height=300.0,
        horizontal_capacity=4,
        vertical_capacity=4,
        track_pitch_um=1.0,
    )


@pytest.fixture
def l_route():
    """An L-shaped two-pin route: (0,0) -> (1,0) -> (1,1)."""
    return RouteTree(
        net_id=0,
        pin_regions=((0, 0), (1, 1)),
        edges=frozenset({((0, 0), (1, 0)), ((1, 0), (1, 1))}),
    )


class TestRouteTree:
    def test_normalize_edge(self):
        assert normalize_edge((1, 0), (0, 0)) == ((0, 0), (1, 0))
        assert normalize_edge((0, 0), (1, 0)) == ((0, 0), (1, 0))

    def test_regions_and_tree_checks(self, l_route):
        assert l_route.regions() == {(0, 0), (1, 0), (1, 1)}
        assert l_route.is_connected()
        assert l_route.is_tree()

    def test_single_region_net_is_a_tree(self):
        route = RouteTree(net_id=1, pin_regions=((2, 2),))
        assert route.is_tree()
        assert route.regions() == {(2, 2)}

    def test_disconnected_is_not_a_tree(self):
        route = RouteTree(net_id=2, pin_regions=((0, 0), (2, 2)), edges=frozenset())
        assert not route.is_connected()
        assert not route.is_tree()

    def test_cycle_is_not_a_tree(self):
        route = RouteTree(
            net_id=3,
            pin_regions=((0, 0), (1, 1)),
            edges=frozenset({
                ((0, 0), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((0, 0), (0, 1)),
            }),
        )
        assert route.is_connected()
        assert not route.is_tree()

    def test_requires_pin_regions(self):
        with pytest.raises(ValueError):
            RouteTree(net_id=0, pin_regions=())

    def test_wirelength(self, grid, l_route):
        assert l_route.wirelength_um(grid) == pytest.approx(200.0)

    def test_direction_usage(self, grid, l_route):
        usage = l_route.direction_usage(grid)
        assert usage[(0, 0)] == (HORIZONTAL,)
        assert usage[(1, 0)] == (HORIZONTAL, VERTICAL)
        assert usage[(1, 1)] == (VERTICAL,)

    def test_region_lengths_sum_to_wirelength(self, grid, l_route):
        lengths = l_route.region_lengths_um(grid)
        assert sum(lengths.values()) == pytest.approx(l_route.wirelength_um(grid))
        assert lengths[(1, 0)] == pytest.approx(100.0)  # half of each incident edge

    def test_path_between(self, l_route):
        path = l_route.path_between((0, 0), (1, 1))
        assert path == [(0, 0), (1, 0), (1, 1)]
        assert l_route.path_between((0, 0), (0, 0)) == [(0, 0)]

    def test_path_between_unknown_region(self, l_route):
        with pytest.raises(ValueError):
            l_route.path_between((0, 0), (2, 2))


class TestRoutingSolution:
    def make_solution(self, grid):
        nets = [
            Net(net_id=0, pins=(Pin(50, 50), Pin(150, 150))),
            Net(net_id=1, pins=(Pin(50, 150), Pin(250, 150))),
        ]
        netlist = Netlist(nets)
        routes = {
            0: RouteTree(0, ((0, 0), (1, 1)), frozenset({((0, 0), (1, 0)), ((1, 0), (1, 1))})),
            1: RouteTree(1, ((0, 1), (2, 1)), frozenset({((0, 1), (1, 1)), ((1, 1), (2, 1))})),
        }
        return RoutingSolution(grid, netlist, routes)

    def test_wirelength_metrics(self, grid):
        solution = self.make_solution(grid)
        assert solution.total_wirelength_um() == pytest.approx(400.0)
        assert solution.average_wirelength_um() == pytest.approx(200.0)
        assert len(solution) == 2
        assert solution.all_trees_valid()

    def test_missing_route_rejected(self, grid):
        nets = [Net(net_id=0, pins=(Pin(50, 50), Pin(150, 150)))]
        with pytest.raises(ValueError):
            RoutingSolution(grid, Netlist(nets), {})

    def test_route_lookup(self, grid):
        solution = self.make_solution(grid)
        assert solution.route(0).net_id == 0
        with pytest.raises(KeyError):
            solution.route(9)

    def test_nets_in_region(self, grid):
        solution = self.make_solution(grid)
        assert solution.nets_in_region((1, 1), VERTICAL) == [0]
        assert solution.nets_in_region((1, 1), HORIZONTAL) == [1]


class TestCongestion:
    def test_region_usage_metrics(self):
        usage = RegionUsage(nets={1, 2, 3}, shields=2.0, capacity=4)
        assert usage.num_segments == 3
        assert usage.utilization == pytest.approx(5.0)
        assert usage.density == pytest.approx(1.25)
        assert usage.overflow == pytest.approx(1.0)
        assert usage.relative_overflow == pytest.approx(0.25)

    def test_zero_capacity_degenerates_gracefully(self):
        usage = RegionUsage(nets={1}, shields=0.0, capacity=0)
        assert usage.density == 0.0
        assert usage.relative_overflow == 0.0

    def test_from_solution_counts_and_shields(self, grid):
        solution = TestRoutingSolution().make_solution(grid)
        congestion = CongestionMap.from_solution(
            solution, shields={((1, 1), VERTICAL): 3.0}
        )
        assert congestion.usage((1, 1), VERTICAL).num_segments == 1
        assert congestion.usage((1, 1), VERTICAL).shields == pytest.approx(3.0)
        assert congestion.usage((1, 1), HORIZONTAL).num_segments == 1
        assert congestion.total_overflow() == pytest.approx(0.0)
        assert congestion.max_density() == pytest.approx(1.0)

    def test_set_shields_and_histogram(self, grid):
        solution = TestRoutingSolution().make_solution(grid)
        congestion = CongestionMap.from_solution(solution)
        congestion.set_shields((1, 1), VERTICAL, 5.0)
        assert congestion.usage((1, 1), VERTICAL).overflow == pytest.approx(2.0)
        assert congestion.num_overflowed_regions() == 1
        histogram = congestion.density_histogram(num_bins=4)
        assert sum(histogram) == grid.num_regions * 2
        with pytest.raises(ValueError):
            congestion.set_shields((1, 1), VERTICAL, -1.0)
        with pytest.raises(ValueError):
            congestion.density_histogram(num_bins=0)

    def test_most_and_least_congested(self, grid):
        solution = TestRoutingSolution().make_solution(grid)
        congestion = CongestionMap.from_solution(solution)
        congestion.set_shields((1, 1), VERTICAL, 5.0)
        coord, direction, usage = congestion.most_congested()
        assert (coord, direction) == ((1, 1), VERTICAL)
        least = congestion.least_congested_among([((1, 1), VERTICAL), ((0, 0), HORIZONTAL)])
        assert least == ((0, 0), HORIZONTAL)
        with pytest.raises(ValueError):
            congestion.least_congested_among([])

    def test_unknown_usage_key(self, grid):
        congestion = CongestionMap(grid)
        with pytest.raises(KeyError):
            congestion.usage((9, 9), HORIZONTAL)


class TestAreaModel:
    def test_no_overflow_keeps_base_dimensions(self, grid):
        solution = TestRoutingSolution().make_solution(grid)
        congestion = CongestionMap.from_solution(solution)
        report = routing_area(congestion, grid)
        assert report.chip_width == pytest.approx(grid.chip_width)
        assert report.chip_height == pytest.approx(grid.chip_height)
        assert report.overhead == pytest.approx(0.0)

    def test_horizontal_overflow_expands_rows(self, grid):
        solution = TestRoutingSolution().make_solution(grid)
        congestion = CongestionMap.from_solution(solution)
        congestion.set_shields((1, 1), HORIZONTAL, 6.0)  # utilisation 7 vs capacity 4
        report = routing_area(congestion, grid)
        assert report.chip_height == pytest.approx(grid.chip_height + 3.0)
        assert report.chip_width == pytest.approx(grid.chip_width)
        assert report.overhead > 0.0

    def test_vertical_overflow_expands_columns(self, grid):
        solution = TestRoutingSolution().make_solution(grid)
        congestion = CongestionMap.from_solution(solution)
        # No net uses (0, 0) vertically, so utilisation is the 8 shields alone:
        # 4 tracks beyond the capacity of 4 widen column 0 by 4 pitches.
        congestion.set_shields((0, 0), VERTICAL, 8.0)
        report = routing_area(congestion, grid)
        assert report.chip_width == pytest.approx(grid.chip_width + 4.0)

    def test_row_expansion_uses_worst_region_only(self, grid):
        solution = TestRoutingSolution().make_solution(grid)
        congestion = CongestionMap.from_solution(solution)
        congestion.set_shields((0, 1), HORIZONTAL, 6.0)
        congestion.set_shields((2, 1), HORIZONTAL, 4.0)
        report = routing_area(congestion, grid)
        # Both overflowing regions are in row 1; the row grows by the larger excess.
        assert report.chip_height == pytest.approx(grid.chip_height + 3.0)

    def test_overhead_vs_other_report(self):
        first = AreaReport(chip_width=100, chip_height=100, base_width=100, base_height=100)
        second = AreaReport(chip_width=110, chip_height=100, base_width=100, base_height=100)
        assert second.overhead_vs(first) == pytest.approx(0.10)
        assert first.dimensions_label() == "100 x 100"
        assert second.area == pytest.approx(11000.0)
