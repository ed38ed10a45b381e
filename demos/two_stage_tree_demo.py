"""Two-stage spanning tree on a small grid, every solver side by side.

Builds one random 3x3 instance, then prints the cost of each approach:
the cheap surrogate baseline, the Lagrangian bound + repair heuristic,
and (since the instance is small enough) the exact optimum.
"""

import numpy as np

from co_pipeline import two_stage

x = two_stage.generate_instance(width=3, K=30, num_scenarios=4, seed=17)
print(f"grid {x.width}x{x.width}, {x.num_edges} edges, {x.num_scenarios} scenarios")
print("first-stage costs c:", x.c.astype(int))

# The surrogate problem replaces the two-stage recourse with a single MST
# over min(c, mean scenario cost); decoding repairs it into a feasible
# two-stage solution.
theta = two_stage.theta_tilde(x)
y = two_stage.easy_layer(x, theta)
z_base = two_stage.decode(x, y.first_stage)
print("\nsurrogate first stage:", sorted(y.first_stage))
print("decoded first stage:  ", sorted(z_base.first_stage))
print("baseline cost:", two_stage.evaluate_solution(x, z_base))

# Lagrangian relaxation of the nonanticipativity constraints gives a lower
# bound; majority voting over the scenario trees gives a feasible solution.
lb, duals, trace = two_stage.lagrangian_bound(x, iters=300)
z_heur = two_stage.lagrangian_heuristic(x, duals)
print("\nlagrangian lower bound:", round(lb, 4))
print("bound trace (every 50 iters):", [round(v, 2) for v in trace[::50]])
print("heuristic cost:", two_stage.evaluate_solution(x, z_heur))

# 12 edges is within brute-force range: enumerate all first-stage forests.
opt, z_opt = two_stage.brute_force_optimum(x)
print("\nexact optimum:", opt)
print("optimal first stage:", sorted(z_opt.first_stage))

for name, cost in [
    ("baseline", two_stage.evaluate_solution(x, z_base)),
    ("heuristic", two_stage.evaluate_solution(x, z_heur)),
    ("optimum", opt),
]:
    gap = 100.0 * (cost - lb) / abs(lb)
    print(f"{name:10s} cost {cost:10.4f}   gap to bound {gap:6.2f}%")
