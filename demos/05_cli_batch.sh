#!/bin/sh
# Batch workflow through the zlattice command line: build a Cesaro kernel,
# convolve it with itself, take its Weyl derivative, evaluate its transform
# (also at z = 1e308, where z^-k underflows) and invert it, solve a pencil
# problem from a JSON description, probe it and one with a root on the circle,
# and run every built-in fixture.  Two commands must fail with their
# documented outcome: a transform value past the float range exits 2, and the
# probe does not witness z - 1 at radius 1.
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

zlattice fractional cesaro --alpha 0.5 --len 32 --out "$work/c.json"
zlattice convolve --mode faltung --a "$work/c.json" --b "$work/c.json" \
    --window 0:31 --out "$work/ramp.json"
echo "convolved kernel written to $work/ramp.json"
zlattice fractional weyl --alpha 0.5 --seq "$work/c.json" --window 0:20 --kernel-len 32 \
    --out "$work/weyl.json"
echo "order-0.5 Weyl derivative written to $work/weyl.json"
printf "transform at z = 2: "
zlattice transform eval --seq "$work/c.json" --at 2+0i
printf "transform at z = 1e308: "
zlattice transform eval --seq "$work/c.json" --at 1e308
cat > "$work/half.json" <<'EOF'
{"domain": {"kind": "orthant", "signs": ["+"]}, "envelope": null, "n": 1,
 "support_lo": [0], "support_hi": [8], "value_kind": "scalar",
 "values": [[1, 0], [0.5, 0], [0.25, 0], [0.125, 0], [0.0625, 0], [0.03125, 0],
            [0.015625, 0], [0.0078125, 0], [0.00390625, 0]]}
EOF
echo "transform of 0.5^k on 0:8, stored without an envelope, at z = 1e-200:"
code=0
zlattice transform eval --seq "$work/half.json" --at 1e-200 || code=$?
[ "$code" -eq 2 ] || { echo "expected exit 2, got $code"; exit 1; }
zlattice transform invert --seq "$work/c.json" --window 0:31 --out "$work/inverted.json" \
    --report "$work/invert.json"
echo "inversion report:"
cat "$work/invert.json"

cat > "$work/problem.json" <<'EOF'
{
  "kind": "pencil", "n": 1, "m": 1,
  "terms": [
    {"j": [1], "A": [[[1, 0]]]},
    {"j": [0], "A": [[[-0.5, 0]]]}
  ],
  "C": [[[1, 0]]],
  "data": {"generator": "delta"}
}
EOF

zlattice solve --problem "$work/problem.json" --radii 1.0 \
    --kernel-window 0:40 --check-window 1:28 \
    --out "$work/u.json" --report "$work/report.json"
echo "solve report:"
cat "$work/report.json"
echo

zlattice probe-uniqueness --problem "$work/problem.json" --radii 1.0
sed 's/-0.5, 0/-1, 0/' "$work/problem.json" > "$work/unit_root.json"  # z - 1
zlattice probe-uniqueness --problem "$work/unit_root.json" --radii 1.0 | grep "not witnessed"

zlattice fixtures probability --window 8
zlattice fixtures binomial --window 8
zlattice fixtures diagonal --window 30
zlattice fixtures geometric --window 16 --out "$work/geometric.json"
zlattice fixtures gaussian --window 6 --out "$work/gaussian.json"
