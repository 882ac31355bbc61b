"""DC transfer curves of the bench across temperature.

Run:  python demos/05_dc_transfer.py
Writes demos/output/dc_transfer_t<T>.csv, one per temperature.
"""

from pathlib import Path

import numpy as np

from amps.analysis import write_table
from amps.netlist import DcSweepDirective
from amps.rectifier import BenchConfig, bench_dc_transfer, bench_graph, ideal_dual_phase

OUT = Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)

temps = (25.0, 50.0, 75.0, 100.0)
# One call sweeps every temperature in lockstep, as the card .DC IIN -200u 200u
# 5u would; each curve equals the one a single-temperature call gives.
graphs = [bench_graph(BenchConfig(temp=temp)) for temp in temps]
curves = bench_dc_transfer(graphs, DcSweepDirective("IIN", -200e-6, 200e-6, 5e-6))
for temp, (iin, out_plus, out_minus) in zip(temps, curves):
    path = OUT / f"dc_transfer_t{temp:g}.csv"
    write_table(path, ["iin", "out_plus", "out_minus"], [iin, out_plus, out_minus])
    ideal = ideal_dual_phase(iin)
    worst = np.max(np.abs(out_plus - ideal.out_plus)[np.abs(iin) > 10e-6])
    print(f"T={temp:5.1f} degC: {len(iin)} points -> {path.name}   "
          f"worst conduction-band error {worst*1e9:.2f} nA")

print("\nthe transfer is temperature-insensitive: the mirrors copy whatever "
      "current the steering cell conducts, and that routing only moves by "
      "threshold shifts the feedback absorbs")
