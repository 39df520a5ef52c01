"""A quick tour of the autodiff engine.

Builds a tiny expression, runs reverse-mode backward, and then runs the
finite-difference verification suite over every op, the full model and
the causal scorer's hand-written backward.
"""

# psygat first: importing it pins BLAS to one thread, which holds only
# if numpy has not loaded yet
from psygat import tensor as T
from psygat import verify

import numpy as np

# y = sum(tanh(x @ w) * x @ w): a scalar with a two-branch graph
rng = np.random.default_rng(0)
x = T.Tensor(rng.standard_normal((3, 4)), name="x", dtype=np.float64)
w = T.Tensor(rng.standard_normal((4, 2)), name="w", dtype=np.float64)
h = T.matmul(x, w)
y = T.tsum(T.mul(T.tanh(h), h))
T.backward(y)
print(f"y = {float(y.data):.4f}")
print("dy/dw:\n", np.round(w.grad, 4))

# the same gradient, checked against central differences
err = T.grad_check(lambda: T.tsum(T.mul(T.tanh(T.matmul(x, w)), T.matmul(x, w))), [x, w])
print(f"grad check max relative error: {err:.2e}")

# the full verification suite (ops and scorer at 1e-4 tolerance, model at 1e-3)
print("\nverification suite (10 trials per op):")
for name, e, tol, ok in verify.run_suite(trials=10):
    print(f"  {'PASS' if ok else 'FAIL'}  {name:22s} {e:.2e}")
