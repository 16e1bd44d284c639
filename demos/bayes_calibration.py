#!/usr/bin/env python3
"""Check that minimizing the expected tempered loss recovers the posterior.

Binary case: the pointwise minimizer a*(eta) is compared against its closed
form, including the classical ln(eta/(1-eta)) at t1 = t2 = 1. Multiclass
case: the optimum of the expected loss reproduces the power-tilted target.

Run: python demos/bayes_calibration.py
"""

import numpy as np

from ttlr import TemperaturePair, bayes_binary_check, bayes_multiclass_check, tempered_probs

print("binary: a*(eta), two-class multiclass oracle vs closed form")
print("eta    t=(1,1) numeric  closed      t=(0.6,1.6) numeric  closed")
for eta in (0.1, 0.25, 0.5, 0.75, 0.9):
    logistic = bayes_binary_check(eta, TemperaturePair(1.0, 1.0))
    tempered = bayes_binary_check(eta, TemperaturePair(0.6, 1.6))
    print(
        f"{eta:4.2f}   {logistic.a_star_numeric:12.6f}  {logistic.a_star_closed_form:10.6f}"
        f"   {tempered.a_star_numeric:12.6f}     {tempered.a_star_closed_form:10.6f}"
    )
print()
print("a*(0.75) at t=(1,1) should be ln 3 =", np.log(3.0))

# multiclass: the minimizer's induced probabilities match eta^(1/t1)
# renormalized, so the argmax of the posterior is always preserved
print()
eta = np.array([0.6, 0.3, 0.1])
for temps in ((1.0, 1.0), (0.6, 1.6)):
    chk = bayes_multiclass_check(eta, TemperaturePair(*temps))
    reached = tempered_probs(chk.a_star, temps[1])
    print(f"t={temps}: target {np.round(chk.target, 6).tolist()}")
    print(f"          reached {np.round(reached, 6).tolist()}")
    print(f"          max deviation {chk.max_deviation:.2e}, argmax preserved: {chk.argmax_preserved}")
