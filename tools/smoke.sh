#!/bin/sh
# Smoke-run every subcommand on a constant pair and on the benchmark's lossy Drude and
# three-pole-pair media.
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
# the benchmark's three-pole-pair medium: 6 poles and 7 Omega_0 points
printf '[plus]\nkind = "constant"\nvalue = 2.0\n\n[minus]\nkind = "rational"\n' > rational.cfg
printf 'numerator = [1, 1.2j, -14.93, -10.916j, 52.0786, 17.29544j, -38.147584]\n' >> rational.cfg
printf 'denominator = [1, 1.2j, -10.43, -7.416j, 24.5936, 7.74144j, -11.075584]\n' >> rational.cfg
run classify --config rational.cfg --omega 0.3,0.6 --k 3
run classify --config rational.cfg --omega 0,-1 --dim 2
run trace --config rational.cfg --grid=-4:4:81,-1.2:0.4:17 --k 3 --out rational_trace
run trace --config rational.cfg --grid=-4:4:81,-1.2:0.4:17 --dim 2 --out rational_trace2d
# from |omega| ~ 1e52 W-tilde overflows: almost every cell is decided one at a time
run trace --config rational.cfg --grid=-2e52:2e52:81,-1e52:1e51:21 --k 1e52 --out rational_trace_huge
run eigen --config rational.cfg --k 0.5:3:6 --out rational_eigen
run resolve --config rational.cfg --omega 0.3,0.6 --k 3 --h 0.01 --out rational_resolve
run check --config rational.cfg --k 3
# at huge k the oracles break down quietly: exit 1, four PASS/FAIL lines, no warning
status=0
run check --config rational.cfg --k 1e100 > huge_k.txt || status=$?
test "$status" -eq 1
test "$(grep -c -E '^(PASS|FAIL) ' huge_k.txt)" -eq 4
# lossy Drude at k = 1e32: the Lanczos vector is finite but the sum of its squares is
# not; its norm, taken scaled, still gives the lambda line a separation factor
status=0
run check --config drude.cfg --k 1e32 > huge_k_lanczos.txt || status=$?
test "$status" -eq 1
test "$(grep -c -E '^(PASS|FAIL) ' huge_k_lanczos.txt)" -eq 4
grep -q '^FAIL lambda-isolation .*factor = ' huge_k_lanczos.txt
# flow-map vectors of size e^25 k, scaled by powers of two, still match the modes
status=0
run check --config drude.cfg --k 1e150 > huge_k_shoot.txt || status=$?
test "$status" -eq 1
grep -q '^PASS shoot-vs-polynomial ' huge_k_shoot.txt
# the plasmon pair at k = 1e32, beside light-line roots near 1e32
test "$(run eigen --config drude.cfg --k 1e32 | grep -c '1.0442283589,-0.5,')" -eq 2
