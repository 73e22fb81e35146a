"""Grid oracle: brute-force wavefunction evolution vs the closed forms.

Two independent routes must meet:
  sequential - one pointer pushed through n pre/post-selection blocks;
  joint      - n qubits prepared at once, one sum coupling, then every
               qubit post-selected (the 2^n projected bitstring rows are
               summed pairwise, each tree level formed once).

Both are plain wavefunction pushing with no binomial shortcuts, so their
agreement with the analytic layer is a real cross-check.
"""
import math

import numpy as np

import wvsim

params = wvsim.PRESETS["a"]
spec = wvsim.GridSpec.for_protocol(params, dx=0.01)
print(f"grid: dx = {spec.dx}, half_span = {spec.half_span}, {spec.node_count} nodes")

seq, p_seq = wvsim.evolve_sequential(params, spec)
joint, p_joint = wvsim.evolve_joint(params, spec)

diff = seq.amplitudes - joint.amplitudes
l2 = math.sqrt(float(np.sum(diff * diff)) * spec.dx)
print()
print("sequential vs joint evolution")
print(f"  L2 distance of final states   {l2:.3e}")
print(f"  |probability difference|      {abs(p_seq - p_joint):.3e}")

mean, std = wvsim.moments(seq)
m = wvsim.conditional_moments(params)
print()
print("grid vs closed forms")
print(f"  mean  {mean:.9f}  vs  closed form {m.mean:.9f}")
print(f"  std   {std:.9f}  vs  closed form {m.std:.9f}")
print(f"  prob  {p_seq:.9e}  vs  closed form {m.probability:.9e}")

# Mass above the top eigenvalue: the reason one click suffices.
c = wvsim.cdf(seq)
node = int(np.searchsorted(spec.positions(), float(params.n)))
print()
print(f"P(x > +{params.n}) = {1 - float(c[node]):.5f}")

out = "density_preset_a.txt"
with open(out, "w") as fh:
    wvsim.write_density(seq, fh)
print(f"conditional density written to {out} (two columns: x, |psi|^2)")
