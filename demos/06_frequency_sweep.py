"""Sweep the bench across its working band and tabulate precision metrics.

Run:  python demos/06_frequency_sweep.py
Equivalent CLI:  amps bench --freq 1k,100k,10meg -o out/
"""

from amps.rectifier import BenchConfig, compare, run_bench

# A subset of the full decade list keeps the demo under a minute; the CLI
# default sweeps 1 kHz through 100 MHz.
freqs = (1e3, 1e5, 1e7)

# One call runs every frequency's transient in lockstep; each result equals
# the one a single-frequency call gives.
cfgs = [BenchConfig(frequency=f, periods=10, steps_per_period=500) for f in freqs]
results = run_bench(cfgs)

print("freq (Hz)   rms+      rms-      peak+     zcw/T      power (uW)")
for f, cfg, ws in zip(freqs, cfgs, results):
    if isinstance(ws, Exception):
        print(f"{f:9.0e}   failed: {ws}")
        continue
    rep = compare(ws, cfg)
    print(f"{f:9.0e}   {rep.rms_error_plus:.5f}   {rep.rms_error_minus:.5f}   "
          f"{rep.peak_error_plus:.5f}   {rep.zero_crossing_width * f:.5f}   "
          f"{rep.dc_power * 1e6:10.2f}")

print("\nerrors grow with frequency as the crossover glitch occupies a larger "
      "slice of each period, but rectification holds through 100 MHz")
