"""Traced memory peaks of the 30a design loop, in channel stacks.

Synthesizes the default scenario's binder on the VDSL2 30a plan (3479 tones,
10 pairs), saves it, and prints the ``tracemalloc`` peak of one
``load_channel`` and of one ``make_bundle(..., normalize=True)`` +
``build_report``, each over the bytes of the (tones, p, p) complex stack.

    PYTHONPATH=src python tools/traced_peaks.py
"""

import os
import tempfile
import tracemalloc

from xtalk_quant.channel_model import load_channel, save_channel
from xtalk_quant.precoding import make_bundle
from xtalk_quant.rate_analysis import build_report
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
    stack = ensemble.H.nbytes
    print(f"30a plan: {ensemble.grid.count} tones, p = {ensemble.p}, stack {stack / 1e6:.2f} MB")
    for name, peak in (("load_channel", load_peak), ("make_bundle + build_report", report_peak)):
        print(f"{name}: {peak / stack:.2f} stacks ({peak / 1e6:.2f} MB)")


if __name__ == "__main__":
    main()
