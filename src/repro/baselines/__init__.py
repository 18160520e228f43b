"""The comparison baseline from the paper's evaluation that runs here.

- :mod:`repro.baselines.gkr` -- a working GKR/sumcheck proving system
  (the protocol behind Libra and vSQL), used for Table 4: layered
  arithmetic circuits, multilinear sumcheck, prover and verifier.

ZKSQL (Figure 7) is not reproduced: its artifact is closed, so
``benchmarks/bench_fig7_vs_zksql.py`` prints our measured rows beside
the paper's cited numbers.
"""
