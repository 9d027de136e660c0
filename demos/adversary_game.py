"""
The single-feature needle game and the cost lower bound
=======================================================

No learner beats an adversary who hides the relevant feature: with N'
candidate features and a probe budget of B cells, any strategy fails with
probability at least (N' - B - 1)/N'.  Playing the game with one example
per feature (S = 1, as below) shows the simple scan learner already sits on
that floor, so the probe complexity of the lifelong protocols is tight up
to constants.  At S > 1 scan stops after B // S features although a miss
costs one probe, so it stays above the floor.  The hard stream regimes put
the same needle inside full task streams.
"""

import numpy as np

from probelearn import (TreeFamily, adversary_r_min, game_failure_bound,
                        gen_adversary_stream, play_single_feature_game,
                        run_protocol)

N_PRIME = 100
TRIALS = 500

print(f"needle game: N' = {N_PRIME} features, one relevant, s = 1 example")
print(f"{'budget':>6}  {'floor':>6}  {'scan':>6}  {'uniform':>8}")
for budget in (0, 25, 50, 75, 99):
    floor = game_failure_bound(N_PRIME, budget)
    rates = []
    for learner in ("scan", "uniform"):
        fails = 0
        for trial in range(TRIALS):
            rng = np.random.default_rng((7, budget, trial))
            res = play_single_feature_game(rng, N_PRIME, budget,
                                           learner=learner)
            fails += not res.win
        rates.append(fails / TRIALS)
    print(f"{budget:>6}  {floor:>6.3f}  {rates[0]:>6.3f}  {rates[1]:>8.3f}")

# a learner that refuses to guess forfeits exactly when the budget runs out
# before the needle: forfeit rate i* >= B, i.e. (N' - B)/N'
fails = sum(not play_single_feature_game(
    np.random.default_rng((8, t)), N_PRIME, 25, learner="exhaustive").win
    for t in range(TRIALS))
print(f"exhaustive at budget 25: failure {fails / TRIALS:.3f} "
      f"(forfeits whenever i* >= 25)")

# -- the same needle inside task streams ------------------------------------
print("\nhard regimes (N = 16, K = 3, m = 30):")
r_min = adversary_r_min(16, 3, 30)
print(f"  any adversary needs r >= {r_min} bad tasks here")
for regime in ("intermediate", "large1", "large2"):
    r = 0 if regime == "large1" else max(r_min, 8)
    tasks, dictionary = gen_adversary_stream(regime, 16, 3, 30, r, seed=7)
    run = run_protocol(TreeFamily(1, 1), tasks)
    print(f"  {regime:<12} {len(tasks):>4} tasks  "
          f"scratch {run.scratch_count:>3}  probes {run.total_probes}")
