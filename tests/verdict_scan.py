"""Seed scan of the Monte Carlo verdict over the criterion-13 matrix.

Runs every iid law of `test_acceptance.MATRIX` over a block of master seeds
at 2^20 steps x 8 replications, in plain and symmetrized mode, and compares
each run's `w_verdict` with the analytic membership that `report` uses.  A
symmetrized run is labelled with the membership of the symmetrized law: a
point mass X gives X - X' = 0, the zero law.

    PYTHONPATH=src python3 tests/verdict_scan.py

It scans master seeds 1000-1039 in both modes on 2 workers, and prints one
line per law and mode (wrong decisive verdicts with their seeds,
Inconclusive, right decisive) and a total per mode.  A wrong verdict is one
`report` counts as a hard contradiction.  The total leaves out a law whose
symmetrized label differs from its own (degenerate-mean: X - X' = 0), as
that row no longer tests the law's analytic verdict.  Runs are
byte-identical across worker counts, so the counts are deterministic for one
numpy build.  The full scan takes about 7 minutes on 2 cores; pytest does
not collect this file.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from pqslln import cli  # noqa: E402
from pqslln import criteria as cr  # noqa: E402
from pqslln import mc_engine as mc  # noqa: E402
from pqslln import tail_models as tm  # noqa: E402
from test_acceptance import MATRIX  # noqa: E402

SEEDS = range(1000, 1040)
MODES = ("plain", "symmetrized")
WORKERS = 2
_RIGHT = {(cr.MEMBER, cr.CONVERGES), (cr.NON_MEMBER, cr.DIVERGES)}


def truth(model: tm.TailModel, p: float, q: float, mode: str) -> str:
    """The analytic membership of the law a run of `mode` draws."""
    constant = (mc.MagnitudeSampler(model).point_mass is not None
                and model.negative_prob in (0.0, 1.0))
    if mode == "symmetrized" and constant:
        model = tm.zero()
    return cr.classify_slln(model, p, q).membership


def rule(verdict: dict) -> str:
    """What decided `verdict`: exact zeros ("flat") or the fitted rho."""
    diag = verdict["diagnostics"]
    if diag.get("flat"):
        return "flat"
    return f"rho {diag['rho']:.3f}" if diag.get("rho") is not None else "no fit"


def scan() -> None:
    laws = [(name, spec, p, q) for name, spec, p, q in MATRIX if "builtin" in spec]
    for mode in MODES:
        totals, left_out = [0, 0, 0], []
        for name, spec, p, q in laws:
            model, _ = cli.resolve_model(spec)
            label = truth(model, p, q, mode)
            wrong, inconclusive, right = [], 0, 0
            for seed in SEEDS:
                config = mc.ExperimentConfig(model=model, p=p, q=q, n_max=1 << 20,
                                             replications=8, master_seed=seed, mode=mode)
                verdict = mc.summary_dict(mc.run_paths(config, workers=WORKERS))["w_verdict"]
                kind = verdict["kind"]
                if (label, kind) in cr.CONTRADICTIONS:
                    wrong.append(f"{seed} {kind} ({rule(verdict)})")
                elif (label, kind) in _RIGHT:
                    right += 1
                else:
                    inconclusive += 1
            if label == truth(model, p, q, "plain"):
                totals = [totals[0] + len(wrong), totals[1] + inconclusive, totals[2] + right]
            else:
                left_out.append(name)
            print(f"{mode} {name} ({p:g}, {q:g}) {label}: wrong {len(wrong)}"
                  + (f" [{'; '.join(wrong)}]" if wrong else "")
                  + f", Inconclusive {inconclusive}, right {right}", flush=True)
        print(f"{mode} total over {len(laws) - len(left_out)} laws x {len(SEEDS)} seeds"
              + (f" (left out: {', '.join(left_out)})" if left_out else "")
              + f": wrong {totals[0]}, Inconclusive {totals[1]}, right {totals[2]}", flush=True)


if __name__ == "__main__":
    scan()
