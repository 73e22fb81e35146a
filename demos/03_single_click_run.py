"""Single-click experiment: one photon detection estimates the weak value.

Each trial is one photon; almost all are absorbed by the seven
post-selections (pass probability ~3.6e-7 for preset 'a').  The rare
survivor clicks at a position drawn from the conditional pointer
density, and that single click already sits far above the eigenvalue
range, with an uncertainty (the final pointer width) too small to
explain the excess.
"""
import wvsim

params = wvsim.PRESETS["a"]
spec = wvsim.GridSpec.for_protocol(params, dx=0.01)
detector = wvsim.DetectorModel(pixel_pitch=0.1)
seed = 101

index, click = wvsim.first_click(seed, 10**9, params, spec, detector)
print(f"first accepted click: trial {index}, pixel center x = {click.position}")

report = wvsim.anomaly_report(click, params)
print(f"eigenvalue bound        +{report.eigenvalue_bound}")
print(f"gap above bound         {report.gap:+.2f}")
print(f"single-shot uncertainty {report.uncertainty:.2f}")
print(f"anomalous               {report.anomalous}")
print(f"gap exceeds uncertainty {report.exceeds_uncertainty}")

# Repeat many times: the click histogram reproduces the conditional
# density, its mean converges to the weak value, its spread to the
# predicted final width.
print()
trials = 30_000_000_000  # ~11k accepted clicks
ensemble = wvsim.run_trials(seed, trials, params, spec, detector)
predicted = wvsim.conditional_moments(params)
print(f"ensemble: {ensemble.accepted} clicks out of {ensemble.trials} trials")
print(f"  mean   {ensemble.mean:.3f}  (weak value {predicted.mean:.3f})")
print(f"  std    {ensemble.std:.3f}  (predicted  {predicted.std:.3f})")
print(f"  stderr {ensemble.stderr:.4f}")

out = "clicks_preset_a.txt"
with open(out, "w") as fh:
    wvsim.write_histogram(ensemble, fh)
print(f"histogram written to {out}")
