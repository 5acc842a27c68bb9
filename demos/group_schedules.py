"""Print how the two-group split and the mutation span evolve over a run.

Group 1 (standard velocity updates) shrinks quadratically from g_pini to
g_pfine of the population; group 2 (gene mutation) grows to match. The number
of mutated genes per group-2 particle grows quadratically from m_min to m_max.

Usage: python3 demos/group_schedules.py
"""

from epso import EpsoConfig, group1_size, mutation_gene_count

cfg = EpsoConfig(
    dimension=20,
    bounds=[-5.0, 5.0],
    population_size=50,
    max_iterations=100,
    g_pini=0.9,
    g_pfine=0.5,
    m_min=1,
    m_max=10,
)

print(f"population={cfg.population_size}, iterations={cfg.max_iterations}, "
      f"g_pini={cfg.g_pini}, g_pfine={cfg.g_pfine}, "
      f"m_min={cfg.m_min}, m_max={cfg.m_max}\n")
print(f"{'iteration':>9}  {'group 1':>7}  {'group 2':>7}  {'mutated genes':>13}")
for t in range(0, cfg.max_iterations + 1, 10):
    g1 = group1_size(t, cfg)
    g2 = cfg.population_size - g1
    m = mutation_gene_count(t, cfg)
    print(f"{t:>9}  {g1:>7}  {g2:>7}  {m:>13}")
