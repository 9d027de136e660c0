"""
Monomial targets: exponent estimation and span reuse
====================================================

Targets are monomials g(x) = prod x_i^{g_i} over a rational grid on
[1, 2].  Taking logs turns the label into a linear form in the exponents,
so each exponent comes from one column of probes.  The representation is
an integer matrix of previously learned exponent vectors: a new target
inside its natural span needs only K columns plus one verification sample.
"""

import numpy as np

from probelearn import (CostlyDataset, ProductDistribution,
                        RepresentationMatrix, SampledConfig, StreamSpec,
                        MonomialFamily, estimate_power, eval_monomial,
                        gen_monomial_stream, run_protocol, sample_size_bound)

dist = ProductDistribution()
rng = np.random.default_rng(3)

# -- sampled-mode estimation: how many examples does one exponent need? ----
g = np.array([2, 1], dtype=np.int64)
constant = 2e-4  # calibrated against the estimator's empirical error
need = sample_size_bound(2, dist.log_var(), 2, 1, 0.1, constant)
print(f"sample size for d=2, N=2, delta=0.1: S = {need}")

idx = rng.integers(0, dist.m_grid + 1, (need, 2))
values = [[dist.value(int(idx[e, i])) for i in range(2)] for e in range(need)]
labels = [eval_monomial(g, row) for row in values]
ds = CostlyDataset.from_rational(values, labels)

cfg = SampledConfig(constant=constant, delta=0.1)
for i in range(2):
    est = estimate_power(ds, i, dist, "sampled", 2, sampled=cfg)
    print(f"  feature {i}: estimated exponent {est} (true {g[i]})")
print(f"  probes charged: {ds.ledger.total_probes} = S x 2 columns")

# -- the representation matrix: solve, lift, verify ------------------------
rep = RepresentationMatrix(3)
rep.insert(np.array([1, 1, 0], dtype=np.int64))
rep.insert(np.array([0, 0, 1], dtype=np.int64))
target = np.array([2, 2, 1], dtype=np.int64)  # = 2*(1,1,0) + 1*(0,0,1)
w = rep.solve([int(target[i]) for i in rep.rows()])
print(f"\nrestricted solve over rows {rep.rows()}: weights {w}")
print(f"lift spans the target: {rep.contains(target)}")

# -- a full protocol run: K scratches, then cheap LFD ----------------------
spec = StreamSpec(family="monomial", n_features=12, k=3, d=4, m=30,
                  sample_size=4, seed=11).validate()
tasks, cols = gen_monomial_stream(spec)
run = run_protocol(MonomialFamily(spec.n_features, spec.d, dist), tasks)

print(f"\nstream of {spec.m} monomial tasks over the K={spec.k} columns:")
print("  outcomes:", "".join("S" if o == "scratch" else "." for o in run.outcomes))
print(f"  scratch count {run.scratch_count}, final rank {run.final_rep.k}")
lfd_all = [run.per_example_max[i] for i, o in enumerate(run.outcomes)
           if o == "lfd"]
print(f"  worst LFD per-example probes {max(lfd_all)} "
      f"(cap K + d = {spec.k + spec.d})")
