"""The run columns of ``plant.run_axis``'s schedule, for tests that write
their schedules as ``(first, stop, setpoint)`` runs."""

from array import array

from robothumb.plant import counts_per_output_rev


def run_columns(runs, axis) -> tuple:
    """``run_axis``'s run columns for consecutive ``(first, stop, setpoint)``
    runs, each kept as given: adjacent runs may share a setpoint. Targets come
    from ``axis_step``'s scalar formula."""
    cpr = counts_per_output_rev(axis)
    return (array("q", [first for first, _, _ in runs] + [runs[-1][1]]),
            array("q", [setpoint for _, _, setpoint in runs]),
            array("d", [setpoint * 360.0 / cpr for _, _, setpoint in runs]))
