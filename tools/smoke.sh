#!/bin/sh
# Smoke-run every subcommand on a constant pair and on the benchmark's lossy Drude medium.
# Usage: sh tools/smoke.sh <output directory>; exits non-zero on the first failure.
set -eu
mkdir -p "$1"
cd "$1"
run() { python -m pencil_spectra.trace_cli "$@"; }
printf '[plus]\nkind = "constant"\nvalue = 2.0\n\n[minus]\nkind = "constant"\nvalue = -3.0\n' > smoke.cfg
run classify --config smoke.cfg --omega 0,0.5 --k 3
run classify --config smoke.cfg --omega 0,0.5 --dim 2
run trace --config smoke.cfg --grid=-2:2:41,-1:1:21 --k 3 --out smoke_trace
run trace --config smoke.cfg --grid=-2:2:41,-1:1:21 --dim 2 --out smoke_trace2d
run eigen --config smoke.cfg --k 0.5:3:6 --out smoke_eigen
run resolve --config smoke.cfg --omega 0.3,0.6 --k 2 --h 0.01 --out smoke_resolve
run check --config smoke.cfg --k 3
# the benchmark's lossy Drude medium: poles, Omega_0 and Drude plasmons
printf '[plus]\nkind = "constant"\nvalue = 2.0\n\n[minus]\nkind = "drude"\nomega_p = 0.8\ngamma = 1.0\n' > drude.cfg
run classify --config drude.cfg --omega 0,-1 --k 3
run classify --config drude.cfg --omega 0,-1 --dim 2
run trace --config drude.cfg --grid=-3:3:61,-1.2:0.4:17 --k 3 --out drude_trace
run eigen --config drude.cfg --k 0.5:3:6 --out drude_eigen
run resolve --config drude.cfg --omega 0.3,0.6 --k 3 --h 0.01 --out drude_resolve
run check --config drude.cfg --k 3
run check --config drude.cfg --k 0.5   # the decay-sized probe grid, 63k nodes
# the plasmon pair at k = 1e32, beside light-line roots near 1e32
test "$(run eigen --config drude.cfg --k 1e32 | grep -c '1.0442283589,-0.5,')" -eq 2
