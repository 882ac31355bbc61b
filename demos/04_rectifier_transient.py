"""Transient-simulate the rectifier bench and score it against the oracle.

Run:  python demos/04_rectifier_transient.py
Writes demos/output/bench_1khz.csv
"""

from pathlib import Path

import numpy as np

from amps.analysis import write_csv
from amps.rectifier import BenchConfig, compare, ideal_dual_phase, run_bench

OUT = Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)

# 8 periods at 500 steps/period keeps this demo quick; the acceptance suite
# runs the full 20 x 1000 configuration.
cfg = BenchConfig(frequency=1e3, periods=8, steps_per_period=500)
print(f"running bench: {cfg.frequency:g} Hz, {cfg.amplitude_pp*1e6:g} uA p-p, "
      f"{cfg.temp:g} degC, {cfg.periods} periods ...")
(ws,) = run_bench([cfg])  # one config in, one result out
path = OUT / "bench_1khz.csv"
write_csv(ws, path)
print(f"wrote {path}  (columns: time,{','.join(ws.names())})")

report = compare(ws, cfg)
print(f"\nprecision over the post-startup window {report.window}:")
print(f"  rms error  +phase: {report.rms_error_plus:.5f}   "
      f"-phase: {report.rms_error_minus:.5f}   (normalized to 200 uA)")
print(f"  peak error +phase: {report.peak_error_plus:.5f}   "
      f"-phase: {report.peak_error_minus:.5f}")
print(f"  zero-crossing width: {report.zero_crossing_width:.3e} s/period")
print(f"  supply power: {report.dc_power*1e6:.1f} uW")

# Eyeball one period against the ideal transfer.
t = ws.get("iin").times
iin = ws.get("iin").values
out_p = ws.get("out_plus").values
ideal = ideal_dual_phase(iin)
period = slice(5 * cfg.steps_per_period, 6 * cfg.steps_per_period + 1,
               cfg.steps_per_period // 8)
print("\n  t (ms)    iin (uA)   out_plus (uA)   ideal (uA)")
for i in range(*period.indices(t.size)):
    print(f"  {t[i]*1e3:7.3f}  {iin[i]*1e6:+9.2f}  {out_p[i]*1e6:12.2f}  "
          f"{ideal.out_plus[i]*1e6:10.2f}")
