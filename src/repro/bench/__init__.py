"""The benchmark harness: one module per paper table/figure.

Run ``python -m repro.bench all`` (or a single experiment id:
``fig7 fig8 fig9 fig10 fig11 table4 table5``) to regenerate the
paper's evaluation artifacts.  Each experiment returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows are also
asserted (shape-wise) by the pytest-benchmark drivers under
``benchmarks/``.

See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.bench.experiments import run_experiment
from repro.bench.harness import EXPERIMENTS, ExperimentResult

__all__ = ["EXPERIMENTS", "ExperimentResult", "run_experiment"]
