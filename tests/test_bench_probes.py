"""The benchmark finds what it times by name: `mttbench` wraps functions of
mttsort's modules, and a name it does not find makes that name's metrics
read 0, with only a note on stderr. This test turns the rename or the
deletion of a probed name into a failure."""

import re

from mttsort import association, metrics, tracker

from mttbench import bench, layertrace

# Probes of `iou` functions that no longer exist; `association.iou.calls`
# reads 0 until the benchmark probes the current kernel.
STALE = ["mttsort.association.iou", "mttsort.metrics.iou"]


def test_every_benchmark_probe_but_the_stale_ones_finds_its_name(capsys):
    originals = (metrics.evaluate, tracker.preprocess, association.solve_assignment)
    tracer, timeline = layertrace.Tracer(), bench.Timeline()
    try:
        tracer.install()
        timeline.install()
    finally:
        timeline.uninstall()
        tracer.uninstall()
    missing = re.findall(r"^trace: (\S+) not found", capsys.readouterr().err, re.M)
    assert sorted(missing) == STALE
    assert (metrics.evaluate, tracker.preprocess, association.solve_assignment) == originals
