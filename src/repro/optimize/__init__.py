"""Maximum-likelihood estimation, hypothesis testing, and site inference.

* :mod:`repro.optimize.bfgs` — quasi-Newton BFGS (paper §II-B:
  "Newton-Raphson methods or an approximation like the
  Broyden-Fletcher-Goldfarb-Shanno (BFGS) method"); every caller passes
  its gradient.
* :mod:`repro.optimize.ml` — the fit driver: packs model parameters and
  branch lengths, counts iterations (Table III), runs H0/H1 pairs; every
  coordinate gets its exact gradient from the engine's one-pass
  gradient (outside pass and eigenbasis contraction).
* :mod:`repro.optimize.lrt` — the likelihood ratio test for positive
  selection, with the χ²₁ and boundary-mixture p-values.
* :mod:`repro.optimize.beb` — naive and Bayes empirical Bayes posterior
  probabilities of positive selection per site (the downstream step the
  paper's introduction describes).
"""

from repro.optimize.bfgs import OptimizeResult, minimize_bfgs
from repro.optimize.lrt import LRTResult, likelihood_ratio_test
from repro.optimize.ml import BranchSiteTest, FitResult, fit_branch_site_test, fit_model

__all__ = [
    "BranchSiteTest",
    "FitResult",
    "LRTResult",
    "OptimizeResult",
    "fit_branch_site_test",
    "fit_model",
    "likelihood_ratio_test",
    "minimize_bfgs",
]
