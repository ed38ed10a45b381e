"""Learning by experience: no target solutions, only instance costs.

Trains the two-stage pipeline weights on 8 small instances by direct
search over the weight box, then compares gaps on 4 held-out instances.
Runs in well under a minute.
"""

import numpy as np

from co_pipeline import learning, two_stage


def make_set(master_seed, count):
    seeds = np.random.SeedSequence(master_seed).spawn(count)
    out = []
    for i, s in enumerate(seeds):
        x = two_stage.generate_instance(
            width=4 + i % 2, K=20, num_scenarios=3, seed=int(s.generate_state(1)[0])
        )
        lb, _, _ = two_stage.lagrangian_bound(x, iters=300)
        out.append((x, lb))
    return out


train_pairs = make_set(101, 8)
test_pairs = make_set(202, 4)

# The loss of a weight vector w is the pipeline's cost gap to the stored
# lower bound, averaged over the training instances.  It is piecewise
# constant in w, so the learner is a sampling search, not gradient descent.
loss_cfg = two_stage.experience_loss_config(train_pairs)
train_set = [x for x, _ in train_pairs]
learner = learning.LearnerConfig(box_radius=10.0, budget=400, seeds=(0, 1, 2))
wv, report = learning.learn_by_experience(train_set, learner, loss_cfg)

print("per-seed best risks:")
for row in report["per_seed"]:
    print(f"  seed {row['seed']}  risk {row['best_value']:.5f}  evals {row['evals']}")

print("\nheld-out gaps (% above lower bound):")
print(f"{'instance':10s} {'baseline':>9s} {'learned':>9s}")
base_gaps, learned_gaps = [], []
for i, (x, lb) in enumerate(test_pairs):
    gap = lambda z: 100.0 * (two_stage.evaluate_solution(x, z) - lb) / abs(lb)
    b = gap(two_stage.approx_baseline(x))
    l = gap(two_stage.pipeline_solution(x, wv))
    base_gaps.append(b)
    learned_gaps.append(l)
    print(f"{i:10d} {b:9.3f} {l:9.3f}")
print(f"{'mean':10s} {np.mean(base_gaps):9.3f} {np.mean(learned_gaps):9.3f}")
