"""Evaluate the MOSFET model: Id-Vds families and temperature behavior.

Run:  python demos/02_device_characteristics.py
Writes demos/output/id_vds_cmosn.csv
"""

from pathlib import Path

import numpy as np

from amps.analysis import write_table
from amps.device import derive_params, eval_mosfet, overlap_caps
from amps.netlist import parse_netlist
from amps.rectifier import MODEL_CARDS

OUT = Path(__file__).with_name("output")
OUT.mkdir(exist_ok=True)

doc = parse_netlist("cards\n" + MODEL_CARDS + "\n.END\n")
W, L = 1.5e-6, 0.15e-6

# Geometry plus temperature resolve a card into evaluated parameters.
nmos = derive_params(doc.models["CMOSN"], W, L, temp=27.0)
print(f"CMOSN at 27 degC: vth0={nmos.vth0:.4f} V  kp_eff={nmos.kp_eff:.4e} A/V^2  "
      f"leff={nmos.leff:.4e} m")
hot = derive_params(doc.models["CMOSN"], W, L, temp=100.0)
print(f"CMOSN at 100 degC: vth0={hot.vth0:.4f} V  kp_eff={hot.kp_eff:.4e} A/V^2  "
      "(threshold and mobility both drop)")

cgd, cgs, cgb = overlap_caps(nmos)
print(f"overlap caps: cgd={cgd:.3e} F  cgs={cgs:.3e} F  cgb={cgb:.3e} F\n")

# Id-Vds family; columns mirror the `amps device-curves` CSV output.
vds = np.arange(0.0, 1.51, 0.05)
vgs_list = (0.9, 1.2, 1.5)
rows = []
for vd in vds:
    rows.append([vd] + [eval_mosfet(nmos, vg, vd, 0.0).id for vg in vgs_list])

path = OUT / "id_vds_cmosn.csv"
write_table(path, ["vds"] + [f"id_vgs{v:g}" for v in vgs_list], np.array(rows).T)
print(f"wrote {path}")

print("\n  vds      " + "".join(f"vgs={v:<8g}" for v in vgs_list))
for row in rows[::6]:
    print(f"  {row[0]:4.2f} V  " + "".join(f"{i*1e6:8.2f} uA  " for i in row[1:]))

ev = eval_mosfet(nmos, 1.5, 1.5, 0.0)
print(f"\nat vgs=vds=1.5 V: id={ev.id*1e6:.2f} uA  gm={ev.gm*1e6:.1f} uS  "
      f"gds={ev.gds:.1f} S (saturated: no channel-length modulation)")
