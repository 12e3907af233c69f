"""The paper's claims: one test per EXPERIMENTS.md section.

Each case computes one record of ``repro.experiments.figures.FIGURES``
at the suite's trace length, prints its body (its EXPERIMENTS.md
section at that length), and fails listing every claim that does not
hold, by its text.
"""

import pytest

from repro.experiments.figures import FIGURES


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.ids[0])
def test_claims(figure):
    data = figure.compute()
    print()
    print(figure.render(data))
    failed = [text for text, holds in figure.claims(data) if not holds]
    if failed:
        pytest.fail("claims that do not hold:\n" + "\n".join(failed),
                    pytrace=False)
