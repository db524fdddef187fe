"""Tests for the design-rule checker."""

from repro.layout.drc import (
    DrcReport,
    check_floorplan,
    check_power_grid,
    check_sensor,
    check_top_layer_reserved,
    run_drc,
)
from repro.layout.floorplan import Floorplan, Region
from repro.layout.geometry import Rect
from repro.layout.technology import make_tech180
from repro.units import UM


def test_assembled_chip_is_drc_clean(chip):
    report = run_drc(chip)
    assert report.clean, report.format()
    assert report.checks_run > 10
    assert "clean" in report.format()


def test_grid_min_width_violation_detected(chip):
    report = DrcReport()
    grid = chip.grid
    original = grid.seg_width.copy()
    try:
        grid.seg_width[0] = 0.01 * UM  # illegally narrow
        check_power_grid(grid, chip.tech, report)
    finally:
        grid.seg_width[:] = original
    assert not report.clean
    assert report.violations[0].rule == "grid.min-width"


def test_sensor_spacing_violation_detected(chip):
    from dataclasses import replace as _
    import copy

    report = DrcReport()
    sensor = copy.copy(chip.sensor)
    sensor.trace_width = sensor.pitch  # zero gap between turns
    check_sensor(sensor, chip.floorplan, chip.tech, report)
    assert any(v.rule == "sensor.spacing" for v in report.violations)


def test_sensor_escape_detected(chip):
    import copy

    report = DrcReport()
    sensor = copy.copy(chip.sensor)
    sensor.polyline = chip.sensor.polyline.copy()
    sensor.polyline[-1, 0] = chip.floorplan.die.x1 + 50 * UM
    check_sensor(sensor, chip.floorplan, chip.tech, report)
    assert any(v.rule == "sensor.containment" for v in report.violations)


def test_floorplan_overlap_detected():
    tech = make_tech180()
    die = Rect(0, 0, 100 * UM, 100 * UM)
    fp = Floorplan(
        die=die,
        regions={
            "a": Region("a", Rect(0, 0, 60 * UM, 100 * UM)),
            "b": Region("b", Rect(40 * UM, 0, 100 * UM, 100 * UM)),
        },
        utilization=0.7,
        tech=tech,
    )
    report = DrcReport()
    check_floorplan(fp, report)
    assert any(v.rule == "floorplan.overlap" for v in report.violations)


def test_floorplan_containment_detected():
    tech = make_tech180()
    die = Rect(0, 0, 100 * UM, 100 * UM)
    fp = Floorplan(
        die=die,
        regions={"a": Region("a", Rect(0, 0, 150 * UM, 100 * UM))},
        utilization=0.7,
        tech=tech,
    )
    report = DrcReport()
    check_floorplan(fp, report)
    assert any(v.rule == "floorplan.containment" for v in report.violations)


def test_top_layer_reservation_detected(chip):
    report = DrcReport()
    grid = chip.grid
    original = grid.seg_start.copy()
    try:
        grid.seg_start[0, 2] = chip.tech.layer("M6").z
        check_top_layer_reserved(grid, chip.tech, report)
    finally:
        grid.seg_start[:] = original
    assert any(v.rule == "top-layer.reserved" for v in report.violations)


def test_report_format_lists_violations():
    report = DrcReport()
    report.add("x.rule", "something bad")
    text = report.format()
    assert "x.rule" in text and "something bad" in text
