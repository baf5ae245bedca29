"""The benchmark's per-layer check at tier 1: one traced pass of each
workload's seed-1 draw records a span for every layer the workload lists,
as a ``--trace 1`` run requires, and every operation passes its checks.
``--smoke`` traces only ``cli.main``, so this is what fails when the
command line stops reaching a layer function by its name."""

import gc
import signal
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["corpus", "chain", "swell", "curvepart"])
def test_traced_pass_records_every_layer(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracing
    import topzeta.cli

    expected, workloads = run.load_expected()
    workload = workloads[name]
    bench = run.Run(topzeta.cli, workload.draw(1), expected)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    # each operation starts with a full collection: keep the test
    # session's heap out of it, as the benchmark keeps its own
    run.freeze_heap()
    try:
        with tracing.Tracer() as tracer:
            bench.one_pass(steady=False)
    finally:
        gc.unfreeze()
        signal.signal(signal.SIGALRM, previous)
    assert bench.failures == []
    assert [n for n in workload.layers if not tracer.calls[n]] == []
