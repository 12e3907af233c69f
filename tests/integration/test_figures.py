"""Every paper artifact of ``repro.experiments.figures.FIGURES``, small.

The claims hold at the benchmark suite's trace lengths (``pytest
benchmarks/``).  Here, at 300 accesses, every record must compute,
render and yield its claims without raising, and ``repro figure``
must print each record's body.
"""

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.figures import FIGURES


@pytest.fixture(autouse=True)
def _small_and_in_memory(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_ACCESSES", "300")
    monkeypatch.setenv("REPRO_STORE", "0")
    runner.clear_cache()
    yield
    runner.clear_cache()


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.ids[0])
def test_record_computes_renders_claims_and_prints(figure, capsys):
    data = figure.compute()
    body = figure.render(data)
    claims = list(figure.claims(data))
    assert claims
    for text, holds in claims:
        assert isinstance(text, str) and text
        assert isinstance(holds, bool), text
    for figure_id in figure.ids:
        assert main(["figure", figure_id]) == 0
        assert capsys.readouterr().out == body + "\n"


def test_fig16_is_its_own_artifact(capsys):
    outputs = []
    for figure_id in ("fig3", "fig16"):
        assert main(["figure", figure_id]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]
    assert "SLH accuracy" in outputs[1]
