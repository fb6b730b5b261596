#!/usr/bin/env bash
# Run every shipped experiment config; stop on the first failure.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${FOLHARM_OUT:-$here/../folharm_out}"

# run this checkout's package, not an installed one
folharm() { PYTHONPATH="$here/../src" python3 -m folharm.cli "$@"; }

folharm energy --config "$here/configs/energy_identity_torus.json" --out "$out/energy_identity_torus"
folharm flow   --config "$here/configs/flow_circle_sine.json" --out "$out/flow_circle_sine"
folharm verify --config "$here/configs/verify_core_identities.json" --out "$out/verify_core_identities"
folharm verify --config "$here/configs/verify_weitzenbock_refinement.json" --out "$out/verify_weitzenbock_refinement"
folharm verify --config "$here/configs/verify_composition_chain.json" --out "$out/verify_composition_chain"
folharm flow   --config "$here/configs/flow_rigidity_flat.json" --out "$out/flow_rigidity_flat"
folharm flow   --config "$here/configs/flow_rigidity_hyperbolic.json" --out "$out/flow_rigidity_hyperbolic"
folharm report --config "$here/configs/report_sphere_identity.json" --out "$out/report_sphere_identity"
folharm tension --config "$here/configs/flow_rigidity_flat.json" --out "$out/tension_rigidity_flat"

echo "all experiment configs passed; outputs under $out"
