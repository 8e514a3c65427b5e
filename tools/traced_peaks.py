"""Traced memory peaks of the 30a design loop, in channel stacks.

Synthesizes the default scenario's binder on the VDSL2 30a plan (3479 tones,
10 pairs), saves it, and prints the ``tracemalloc`` peak of one
``load_channel``, of one ``make_bundle(..., normalize=True)`` +
``build_report`` and of ``min_bits_empirical``'s certificate at 1 %
(``min_bits_worst_case``), each over the bytes of the (tones, p, p) complex
stack.

    PYTHONPATH=src python tools/traced_peaks.py
"""

import os
import tempfile
import tracemalloc

from xtalk_quant.channel_model import load_channel, save_channel
from xtalk_quant.monte_carlo import CERT_MARGIN
from xtalk_quant.precoding import make_bundle
from xtalk_quant.rate_analysis import build_report, min_bits_worst_case
from xtalk_quant.scenario import Scenario


def traced_peak(fn):
    """fn()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    scen = Scenario(decimation=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chan.json")
        save_channel(scen.ensemble(), path)
        ensemble, load_peak = traced_peak(lambda: load_channel(path))
    budget, spec = scen.budget(ensemble.grid), scen.perturbation()
    _, report_peak = traced_peak(
        lambda: build_report(budget, ensemble, make_bundle(ensemble, spec, normalize=True))
    )
    _, certificate_peak = traced_peak(
        lambda: min_bits_worst_case(budget, ensemble, 0.01 - CERT_MARGIN, 32)
    )
    stack = ensemble.H.nbytes
    print(f"30a plan: {ensemble.grid.count} tones, p = {ensemble.p}, stack {stack / 1e6:.2f} MB")
    for name, peak in (
        ("load_channel", load_peak),
        ("make_bundle + build_report", report_peak),
        ("min_bits_worst_case at 1 %", certificate_peak),
    ):
        print(f"{name}: {peak / stack:.2f} stacks ({peak / 1e6:.2f} MB)")


if __name__ == "__main__":
    main()
