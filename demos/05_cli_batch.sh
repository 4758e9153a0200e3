#!/bin/sh
# Batch workflow through the zlattice command line: build a Cesaro kernel,
# convolve it with itself, take its Weyl derivative, evaluate its transform
# (also at z = 1e308, where z^-k underflows) and invert it, solve a pencil
# problem from a JSON description, and run every built-in fixture.
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

zlattice fixtures probability --window 8
zlattice fixtures binomial --window 8
zlattice fixtures diagonal --window 30
zlattice fixtures geometric --window 16 --out "$work/geometric.json"
zlattice fixtures gaussian --window 6 --out "$work/gaussian.json"
