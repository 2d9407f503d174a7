"""Render the pair-splitting rule as ASCII art.

Every point in space belongs to exactly one side of a superquadric pair:
containment wins where only one SQ covers the point, the larger F^e1 wins
where both do, and the smaller radial distance wins where neither does.
The z = 0 slice of the built-in demo pair makes the two boundary regimes
visible: inside the union the A/B frontier follows the F^e1 equality curve,
outside it follows the radial-distance equality curve.
"""

import numpy as np

from sqdecomp import SliceSpec, inside_outside_stable, split_field_2d
from sqdecomp import quaternions as quat
from sqdecomp.cli import _PRESET_PAIRS

sq_a, sq_b = _PRESET_PAIRS["fig3"]
spec = SliceSpec(axis=2, offset=0.0, nu=72, nv=36)
field = split_field_2d(sq_a, sq_b, spec)

inside_a = field.h_a < 1.0
inside_b = field.h_b < 1.0
for iv in reversed(range(spec.nv)):  # top row = +y
    chars = []
    for iu in range(spec.nu):
        on_surface = abs(field.h_a[iv, iu] - 1) < 0.08 or abs(field.h_b[iv, iu] - 1) < 0.08
        if on_surface:
            chars.append("#")
        elif field.to_a[iv, iu]:
            chars.append("A" if inside_a[iv, iu] else "a")
        else:
            chars.append("B" if inside_b[iv, iu] else "b")
    print("".join(chars))

print()
print("A/B: assigned points inside their SQ   a/b: assigned outside points")
print("#: near an SQ surface")
print(f"cells assigned to A: {int(field.to_a.sum())} / {field.to_a.size}")
