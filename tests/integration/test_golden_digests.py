"""Whole-experiment arbiter: short cells hashed against committed digests.

Each cell runs a reduced experiment end to end (sender, fabric, NIC, GRO,
TCP) and hashes its simulated outputs.  The digests in
``tests/golden/digests.json`` were recorded before an engine rewrite, so a
change that alters any simulated output — a different fire order among
events due at the same instant, a lost or extra event — fails here even if
every unit contract still holds.

Regenerate only for a change that is meant to alter simulated outputs::

    PYTHONPATH=src python tests/integration/test_golden_digests.py --write
"""

import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

import pytest

DIGESTS = Path(__file__).resolve().parent.parent / "golden" / "digests.json"


def _fig13():
    from repro.experiments.fig13_ofo_timeout_throughput import (
        Fig13Params, run_cell)

    return run_cell(Fig13Params(warmup_ms=4, measure_ms=6),
                    reorder_us=500, ofo_us=200)


def _host_vs_fabric(gro):
    from repro.experiments.host_vs_fabric import HostFabricParams, run_point

    return run_point(HostFabricParams(warmup_ms=2, measure_ms=6),
                     engine=gro, routing="per_packet", load=2, fault=0)


def _fig16():
    from repro.experiments.fig16_active_list_histogram import (
        Fig16Params, run_panel)

    return run_panel(Fig16Params(warmup_ms=2, measure_ms=4), 10.0)


def _cpu_overhead():
    from repro.experiments.cpu_overhead import CpuOverheadParams, run_scenario

    return run_scenario(CpuOverheadParams(num_flows=4, warmup_ms=2,
                                          measure_ms=4))


def _faults_matrix(kind):
    from repro.faults.experiments import MatrixParams, run_point

    return run_point(MatrixParams(), fault_kind=kind, intensity=3,
                     engine="juggler")


#: Cell name -> zero-argument runner returning the cell's result dataclass.
CELLS = {
    "cpu_overhead_juggler_4flows": _cpu_overhead,
    "faults_matrix_duplicate_l3": lambda: _faults_matrix("duplicate"),
    "faults_matrix_loss_l3": lambda: _faults_matrix("loss"),
    "fig13_tau500_ofo200": _fig13,
    "fig16_panel_10g": _fig16,
    "host_vs_fabric_juggler_per_packet": lambda: _host_vs_fabric("juggler"),
    "host_vs_fabric_standard_per_packet": lambda: _host_vs_fabric("standard"),
}


def _by_value(obj):
    """JSON fallback: enums (e.g. ``GroKind``) serialise as their value."""
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"not JSON serialisable: {obj!r}")


def digest(result) -> str:
    """sha256 of the result's fields as canonical JSON."""
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True,
                      default=_by_value)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_outputs_match_committed_digest(name):
    expected = json.loads(DIGESTS.read_text())
    assert digest(CELLS[name]()) == expected[name]


if __name__ == "__main__":
    digests = {name: digest(run()) for name, run in sorted(CELLS.items())}
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(text)
    print(text, end="")
