"""Closed-form tour: anomalous weak values from sequential post-selection.

A qubit is prepared at angle alpha, weakly coupled to one Gaussian
pointer (|H> pushes it +1, |V> pushes it -1), post-selected at angle
beta, and the block repeats n times.  The pointer mean after the last
post-selection is the weak value of the n-block sum observable, and for
the right angles it lands far outside the spectrum [-n, +n].
"""
import wvsim

print("Bundled presets (n = 7 blocks each)")
print(f"{'label':>5} {'alpha':>6} {'beta':>6} {'delta':>6} "
      f"{'weak value':>11} {'final std':>10} {'P(pass)':>10} {'<obs>':>7}")
for label, params in sorted(wvsim.PRESETS.items()):
    m = wvsim.conditional_moments(params)
    base = wvsim.expectation_sigma_sum(params.n, params.alpha)
    print(f"{label:>5} {params.alpha:6.2f} {params.beta:6.2f} {params.delta:6.2f} "
          f"{m.mean:11.3f} {m.std:10.3f} {m.probability:10.3e} {base:7.2f}")

params = wvsim.PRESETS["a"]
m = wvsim.conditional_moments(params)
print()
print("Preset 'a' dissected:")
print(f"  eigenvalue range            [-{params.n}, +{params.n}]")
print(f"  plain expectation value     {wvsim.expectation_sigma_sum(params.n, params.alpha):+.3f}")
print(f"  weak value                  {m.mean:+.3f}")
print(f"  initial pointer width       {params.delta}")
print(f"  final pointer width         {m.std:.3f}  (narrowed!)")
print(f"  post-selection probability  {m.probability:.3e}")

# The weak value costs dearly: only one photon in ~3 million survives all
# seven post-selections.  But each survivor reads ~18.7 with a +-4.5 spread,
# so one click is already conclusive: 18.7 - 7 = 11.7 > 4.5.

print()
print("Single-coupling cross-check (n = 1 must reduce to the simple form):")
single = wvsim.wv_single(params.alpha, params.beta, params.delta)
reduced = wvsim.conditional_moments(
    wvsim.ProtocolParams(1, params.alpha, params.beta, params.delta)
).mean
print(f"  wv_single  = {single:.15f}")
print(f"  n = 1 mean = {reduced:.15f}")

print()
print("Exact final pointer state of preset 'a' (amplitude per shift):")
sup = wvsim.final_amplitudes(params)
for shift, amp in zip(sup.shifts, sup.amplitudes):
    print(f"  shift {shift:+d}: amplitude {amp:+.5f}")
