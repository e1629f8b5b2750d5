#!/usr/bin/env python3
"""Resolution walkthroughs for a few instructive plane germs.

Prints the full blow-up tree for: the cusp Hamiltonian (three blow-ups, all
leaves reduced), the two-squares field (one blow-up with a purely radial
point whose continuation would be dicritical), a dicritical pencil member,
and a germ whose tangent directions leave Q(i).
"""

from germfield import dicritical_test, parse_field, resolve
from germfield.cli import _resolution
from germfield.parsing import field_to_text, poly_to_text

EXAMPLES = [
    ("cusp Hamiltonian", "2*y, 3*x^2"),
    ("two squares", "x^2, y^2"),
    ("pencil member y dx + x^2 R", "y + x^3, x^2*y"),
    ("irrational tangent directions", "x^2, y^2 + x*y - 2*x^2"),
]


def main():
    for label, text in EXAMPLES:
        x = parse_field(text)
        d = dicritical_test(x)
        kind = "dicritical" if d.dicritical else "non-dicritical"
        print(f"== {label}: X = {field_to_text(x)}")
        print(f"   nu = {d.nu}, first blow-up {kind}, witness {poly_to_text(d.witness, ('t',))}")
        tree = resolve(x)
        for line in _resolution(tree, indent="   ")[1]:
            print(line)
        print(f"   blow-ups: {tree.total_blowups()}, leaves: {sorted(tree.leaf_verdicts())}")
        print()


if __name__ == "__main__":
    main()
