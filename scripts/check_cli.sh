#!/usr/bin/env bash
# End-to-end checks of the installed `gaugephase` entry point: every verify
# suite, the exit codes of refused input, and reports from matrix and
# evolution files, each made twice (or from an LF and a CRLF copy of one
# file, or in one block and in several) and compared byte for byte.  The
# tests call cli.main() in-process; this script runs the console script
# itself.  Under `taskset -c 0` it runs the one-CPU path, where no helper
# process is forked.
#
# Usage: scripts/check_cli.sh [work-directory]   (default: a new temporary one)
set -euo pipefail
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
cd "$work"

# Console script: every verify suite, its determinism and its refusals.
for suite in counting roundtrip gauge reduction offdiag; do
  gaugephase verify --suite "$suite" --n 4 --trials 3 > /dev/null
done
gaugephase verify --suite roundtrip --n 4 --trials 0 > /dev/null
gaugephase verify --suite gauge --n 4 --trials 0 > /dev/null
# The reduction suite at n = 2 (no rectangles), n = 3 (rings of four and
# six vertices) and n = 12 (two stacks of draws).
for n in 2 3 12; do
  for run in 1 2; do
    gaugephase verify --suite reduction --n "$n" --trials 200 --seed 5 > "reduction_n$n-$run.json"
  done
  cmp "reduction_n$n-1.json" "reduction_n$n-2.json"
done
# Every suite at the benchmark's size hands a share of its work to the
# helper process.  Two runs of each give one report, and it is the report
# cli.main makes with one CPU counted, where every suite runs in one process.
bench_suites="gauge:12:200 reduction:12:200 roundtrip:32:40 counting:24:1 offdiag:6:4"
for setting in $bench_suites; do
  IFS=: read -r suite n trials <<< "$setting"
  for run in 1 2; do
    gaugephase verify --suite "$suite" --n "$n" --trials "$trials" --seed 5 > "${suite}_suite$run.json"
  done
done
python - $bench_suites <<'EOF'
import sys
from gaugephase import core
from gaugephase.cli import main
core._cpus = lambda: 1
for setting in sys.argv[1:]:
    suite, n, trials = setting.split(":")
    assert main(["verify", "--suite", suite, "--n", n, "--trials", trials, "--seed", "5",
                 "-o", f"{suite}_suite_in_line.json"]) == 0
EOF
for setting in $bench_suites; do
  suite="${setting%%:*}"
  cmp "${suite}_suite1.json" "${suite}_suite2.json"
  cmp "${suite}_suite1.json" "${suite}_suite_in_line.json"
done
status=0; gaugephase verify --suite counting --n 1 > /dev/null || status=$?
test "$status" -eq 2
status=0; gaugephase verify --suite roundtrip --n 1 --trials 0 > /dev/null || status=$?
test "$status" -eq 2
# A negative seed is refused by every suite before anything is drawn.
for suite in counting roundtrip gauge reduction offdiag; do
  status=0; gaugephase verify --suite "$suite" --seed -1 > "seed_$suite.out" 2> /dev/null || status=$?
  test "$status" -eq 2
  test ! -s "seed_$suite.out"
done
printf '{oops' > broken.json
status=0; gaugephase decompose broken.json || status=$?
test "$status" -eq 2

# Reports from files: the README's matrix and swap evolution.
python - <<'EOF'
from gaugephase import (engineered_swap_evolution, random_generic_unitary,
                        save_evolution, save_matrix)
save_matrix("matrix.json", random_generic_unitary(4, seed=7).data)
swap = engineered_swap_evolution(3, 1, 2, steps=301)
save_evolution("evolution.json", swap.grid, swap.frames)
EOF
for run in 1 2; do
  gaugephase decompose matrix.json > "decompose$run.json"
  gaugephase phases evolution.json --quadrature pancharatnam > "phases$run.json"
  gaugephase offdiag evolution.json --no-triples > "offdiag$run.json"
done
for report in decompose phases offdiag; do
  cmp "${report}1.json" "${report}2.json"
done

# The verify and offdiag pass gates follow the --tol-* flags, and there is
# no --identity-tolerance.
gaugephase verify --suite roundtrip --n 4 --trials 3 --tol-unitary 1e-9 > gates_verify.json
test "$(grep -c '"threshold": 1e-09' gates_verify.json)" -eq 2
gaugephase offdiag evolution.json --tol-generic 1e-7 > gates_offdiag.json
grep -qF '"tolerance": 1e-07' gates_offdiag.json
status=0; gaugephase offdiag evolution.json --identity-tolerance 1e-6 2> /dev/null || status=$?
test "$status" -eq 2

# An evolution whose frames span more than three runs, which the reader
# converts a run at a time and the writer writes a frame at a time from
# its float rows: the file survives a load and a save, and it holds the
# bytes the standard library's json.dump writes for the same nested lists.
# A compact copy, whose frames end in "]]" with nothing between, gives the
# same reports.
python - <<'EOF'
import json
from gaugephase import (frame_evolution_from_path, load_evolution,
                        random_hermitian_path, save_evolution)
from gaugephase.io import _PAIR_RUN
runs = frame_evolution_from_path(random_hermitian_path(3, 11), 500)
save_evolution("runs.json", runs.grid, runs.frames)
save_evolution("runs_again.json", *load_evolution("runs.json"))
doc = {"frames": [[[z.real, z.imag] for z in frame.reshape(-1).tolist()]
                  for frame in runs.frames],
       "grid": runs.grid.tolist(), "n": 3}
with open("runs_stdlib.json", "w", encoding="utf-8") as fh:
    json.dump(doc, fh, sort_keys=True, indent=2)
    fh.write("\n")
with open("runs_compact.json", "w", encoding="utf-8") as fh:
    json.dump(doc, fh, separators=(",", ":"))
text = open("runs.json").read()
assert text.index('"grid"') - text.index('"frames"') > 3 * _PAIR_RUN
assert "]],[[" in open("runs_compact.json").read()
EOF
cmp runs.json runs_again.json
cmp runs.json runs_stdlib.json
for run in 1 2; do
  gaugephase phases runs.json > "runs_phases$run.json"
  gaugephase offdiag runs.json > "runs_offdiag$run.json"
done
gaugephase phases runs_compact.json > runs_compact_phases.json
gaugephase offdiag runs_compact.json > runs_compact_offdiag.json
for report in phases offdiag; do
  cmp "runs_${report}1.json" "runs_${report}2.json"
  cmp "runs_${report}1.json" "runs_compact_${report}.json"
done

# An evolution and a matrix of more than two windows of text each, and
# copies with "\r\n" line ends: the reader refills its window across all
# of them, and each file survives a load and a save.
python - <<'EOF'
import os
from gaugephase import (frame_evolution_from_path, load_evolution, load_matrix,
                        random_generic_unitary, random_hermitian_path, save_evolution,
                        save_matrix)
from gaugephase.io import _CHUNK
windows = frame_evolution_from_path(random_hermitian_path(4, 13), 3000)
save_evolution("windows.json", windows.grid, windows.frames)
save_matrix("matrix_windows.json", random_generic_unitary(300, seed=17).data)
for name in ("windows", "matrix_windows"):
    assert os.path.getsize(f"{name}.json") > 2 * _CHUNK
    with open(f"{name}.json", "rb") as lf, open(f"{name}_crlf.json", "wb") as crlf:
        crlf.write(lf.read().replace(b"\n", b"\r\n"))
save_evolution("windows_again.json", *load_evolution("windows.json"))
save_matrix("matrix_windows_again.json", load_matrix("matrix_windows.json"))
EOF
cmp windows.json windows_again.json
cmp matrix_windows.json matrix_windows_again.json
for file in windows windows_crlf; do
  gaugephase phases "$file.json" > "${file}_phases.json"
  gaugephase offdiag "$file.json" > "${file}_offdiag.json"
done
cmp windows_phases.json windows_crlf_phases.json
cmp windows_offdiag.json windows_crlf_offdiag.json
for file in matrix_windows matrix_windows_crlf; do
  gaugephase decompose "$file.json" > "${file}_decompose.json"
done
cmp matrix_windows_decompose.json matrix_windows_crlf_decompose.json

# A report of more floats than the writer's fork size (decompose at n = 200,
# 59,302 floats), every other float block of which the helper process joins:
# the report through a pipe, the report written with -o, and the bytes the
# standard library's json.dump writes for the same document are one text.
# A helper that wrote to stdout, or flushed its copy of stdout's buffer,
# would double text in the piped copy.
python - <<'EOF'
from gaugephase import random_generic_unitary, save_matrix
from gaugephase.core import _Fork
save_matrix("matrix_fork.json", random_generic_unitary(200, seed=23).data)
assert 200 * 199 // 2 + 199 * 198 > _Fork.floats
EOF
gaugephase decompose matrix_fork.json | cat > fork_piped.json
gaugephase decompose matrix_fork.json -o fork_file.json
python - <<'EOF'
import json
with open("fork_file.json", encoding="utf-8") as fh:
    doc = json.load(fh)
with open("fork_stdlib.json", "w", encoding="utf-8") as fh:
    json.dump(doc, fh, sort_keys=True, indent=2)
    fh.write("\n")
EOF
cmp fork_piped.json fork_file.json
cmp fork_piped.json fork_stdlib.json

# A report written with -o to a FIFO whose reader takes 10 bytes and goes
# away, at n = 64 (written in this process alone) and at n = 200 (through
# the helper on two CPUs); either report outgrows the pipe's buffer.  The
# console script exits 141, 128 + SIGPIPE, with nothing on stderr.
python - <<'EOF'
from gaugephase import random_generic_unitary, save_matrix
save_matrix("matrix_fifo.json", random_generic_unitary(64, seed=37).data)
EOF
mkfifo report.fifo
for matrix in matrix_fifo matrix_fork; do
  timeout 120 head -c 10 report.fifo > fifo_head.txt &
  reader=$!
  status=0; gaugephase decompose "$matrix.json" -o report.fifo 2> fifo.err || status=$?
  wait "$reader"
  test "$status" -eq 141
  test ! -s fifo.err
  test "$(wc -c < fifo_head.txt)" -eq 10
done

# A matrix above the coset tower's fork size (n = 256), which decompose
# peels and rebuilds in two processes: the helper process takes the leading
# columns.  Two runs of the console script give one report, and it is the
# report cli.main makes with the fork size patched out, so that the tower
# stays in one process.
python - <<'EOF'
from gaugephase import random_generic_unitary, save_matrix
from gaugephase.core import _Fork
save_matrix("matrix_tower.json", random_generic_unitary(256, seed=31).data)
assert 256 >= _Fork.n
EOF
for run in 1 2; do
  gaugephase decompose matrix_tower.json > "tower$run.json"
done
python - <<'EOF'
from gaugephase.cli import main
from gaugephase.core import _Fork
_Fork.n = 10 ** 9
assert main(["decompose", "matrix_tower.json", "-o", "tower_one_process.json"]) == 0
EOF
cmp tower1.json tower2.json
cmp tower1.json tower_one_process.json

# One process runs two decompose jobs of that matrix through cli.main: the
# first forks the helper, which the second reuses.  Both reports are the
# console script's, and once the process has exited no child it forked is
# left (its atexit hook kills and reaps the helper).
python - <<'EOF' > tower_children.txt
import os
from gaugephase.cli import main
forked, fork = [], os.fork
def counted():
    pid = fork()
    if pid:
        forked.append(pid)
    return pid
os.fork = counted
for run in (1, 2):
    assert main(["decompose", "matrix_tower.json", "-o", f"tower_in_process{run}.json"]) == 0
print(*forked)
EOF
cmp tower1.json tower_in_process1.json
cmp tower1.json tower_in_process2.json
python - $(cat tower_children.txt) <<'EOF'
import os
import sys
for pid in map(int, sys.argv[1:]):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        continue
    raise SystemExit(f"child {pid} outlived the process that forked it")
EOF

# An evolution above the reader's fork size, and its compact copy, each
# read by two processes: the helper process is fed the next run of frames
# whenever it owes fewer than two, and the reading process decodes the
# others, ahead of the runs owed.
# The load holds json.load's numbers bit for bit, and both files give the
# same reports.  Two compact copies, one with a NaN in a frame of run 0,
# the first fed to the helper, and one with a NaN in a frame of run 2,
# which the reading process decodes while the helper owes runs 0 and 1,
# are each refused naming that frame.
python - <<'EOF'
import json
import os
import numpy as np
from gaugephase import (frame_evolution_from_path, load_evolution, random_hermitian_path,
                        save_evolution)
from gaugephase import io
from gaugephase.core import _Fork
fork = frame_evolution_from_path(random_hermitian_path(4, 29), 2500)
save_evolution("fork_evolution.json", fork.grid, fork.frames)
with open("fork_evolution.json", encoding="utf-8") as fh:
    doc = json.load(fh)
with open("fork_compact.json", "w", encoding="utf-8") as fh:
    json.dump(doc, fh, separators=(",", ":"))
for name in ("fork_evolution", "fork_compact"):
    assert os.path.getsize(f"{name}.json") > _Fork.bytes
grid, frames = load_evolution("fork_evolution.json")
expected = np.array(doc["frames"], dtype=np.float64).reshape(frames.shape + (2,))
assert np.array_equal(grid.view(np.uint64), np.array(doc["grid"]).view(np.uint64))
assert np.array_equal(frames.view(np.float64).view(np.uint64).reshape(expected.shape),
                      expected.view(np.uint64))
# The frames in each run, as the two-process read cuts them.
lengths, runs = [], io._runs
def counted(window, closers, helper=None):
    for run in runs(window, closers, helper):
        lengths.append(len(run.counts))
        yield run
io._runs = counted
load_evolution("fork_compact.json")
text = open("fork_compact.json").read()
for name, bad in (("fork_nan", lengths[0] // 2),
                  ("fork_nan_ahead", lengths[0] + lengths[1] + lengths[2] // 2)):
    parts = text.split("]],[[")
    parts[bad] = "NaN" + parts[bad][parts[bad].index(","):]
    open(f"{name}.json", "w").write("]],[[".join(parts))
    open(f"{name}_frame.txt", "w").write(f"{name}.json' frame {bad}: non-finite entries")
EOF
# The file the two processes wrote is the file a save in one process
# writes, and the bytes the standard library's json.dump writes for the
# same nested lists.
python - <<'EOF'
import json
from gaugephase import core, load_evolution, save_evolution
grid, frames = load_evolution("fork_evolution.json")
doc = {"frames": [[[z.real, z.imag] for z in frame.reshape(-1).tolist()] for frame in frames],
       "grid": grid.tolist(), "n": frames.shape[1]}
with open("fork_evolution_stdlib.json", "w", encoding="utf-8") as fh:
    json.dump(doc, fh, sort_keys=True, indent=2)
    fh.write("\n")
core._cpus = lambda: 1
save_evolution("fork_evolution_one_cpu.json", grid, frames)
EOF
cmp fork_evolution.json fork_evolution_stdlib.json
cmp fork_evolution.json fork_evolution_one_cpu.json
for file in fork_evolution fork_compact; do
  gaugephase phases "$file.json" > "${file}_phases.json"
  gaugephase offdiag "$file.json" > "${file}_offdiag.json"
done
cmp fork_evolution_phases.json fork_compact_phases.json
cmp fork_evolution_offdiag.json fork_compact_offdiag.json
# The two-process reports above are the reports cli.main makes with one CPU
# counted, where each file is read and each report written in one process.
python - <<'EOF'
from gaugephase import core
from gaugephase.cli import main
core._cpus = lambda: 1
assert main(["decompose", "matrix_fork.json", "-o", "fork_one_cpu.json"]) == 0
for name in ("fork_evolution", "fork_compact"):
    for command in ("phases", "offdiag"):
        assert main([command, f"{name}.json", "-o", f"{name}_{command}_one_cpu.json"]) == 0
EOF
cmp fork_piped.json fork_one_cpu.json
for file in fork_evolution fork_compact; do
  for command in phases offdiag; do
    cmp "${file}_${command}.json" "${file}_${command}_one_cpu.json"
  done
done

# An evolution of two blocks and one frame (core._blocks): the generator,
# the certificate and the level table each run over three blocks.  Two runs
# of the console script give one report of each kind, and it is the report
# cli.main makes with the block size patched up to the whole evolution.
python - <<'EOF'
from gaugephase import frame_evolution_from_path, random_hermitian_path, save_evolution
from gaugephase.core import _STACK_ENTRIES
blocks = frame_evolution_from_path(random_hermitian_path(8, 21), 2 * _STACK_ENTRIES // 64 + 1)
save_evolution("blocks.json", blocks.grid, blocks.frames)
EOF
for run in 1 2; do
  for quadrature in pancharatnam trapezoid; do
    gaugephase phases blocks.json --quadrature "$quadrature" > "blocks_phases_${quadrature}$run.json"
  done
  gaugephase offdiag blocks.json > "blocks_offdiag$run.json"
done
python - <<'EOF'
from gaugephase import core
from gaugephase.cli import main
core._STACK_ENTRIES = 1 << 40
for quadrature in ("pancharatnam", "trapezoid"):
    assert main(["phases", "blocks.json", "--quadrature", quadrature,
                 "-o", f"blocks_phases_{quadrature}_one_block.json"]) == 0
assert main(["offdiag", "blocks.json", "-o", "blocks_offdiag_one_block.json"]) == 0
EOF
for report in blocks_phases_pancharatnam blocks_phases_trapezoid blocks_offdiag; do
  cmp "${report}1.json" "${report}2.json"
  cmp "${report}1.json" "${report}_one_block.json"
done

# Refused files, read once: a bad last frame after many windows of text,
# 'n' = 0 after a matrix's entries, a leading byte order mark, an
# evolution of 20,000 frames with a number written as a string in every
# frame, and a frame nested in 100,000 brackets, deeper than json's decoder
# recurses.  Each exits 2, with nothing on stdout and the error's text on
# stderr.
python - <<'EOF'
import json
text = open("windows.json").read()
cut = text.index('"grid"')
for _ in range(3):  # the ']' of the frames, of the last frame, of its last pair
    cut = text.rindex("]", 0, cut)
open("bad_last_frame.json", "w").write(text[:cut] + ", 0.0" + text[cut:])
with open("bom.json", "w", encoding="utf-8-sig") as fh:
    fh.write(text)
matrix = open("matrix_windows.json").read()
open("matrix_n0.json", "w").write(matrix.replace('"n": 300', '"n": 0'))
steps = 20000
with open("quoted.json", "w") as fh:
    json.dump({"n": 1, "grid": [s / steps for s in range(steps)],
               "frames": [[[0.6, "0.5"]] for _ in range(steps)]}, fh, indent=2)
deep = "[" * 100_000 + "0.5" + "]" * 100_000
open("deep.json", "w").write('{"n": 1, "grid": [0.0], "frames": [' + deep + "]}")
EOF
refused() {  # the text stderr must hold, then the command
  local expected="$1" status=0
  shift
  "$@" > refused.out 2> refused.err || status=$?
  test "$status" -eq 2
  test ! -s refused.out
  grep -qF -- "$expected" refused.err
}
refused "bad_last_frame.json' frame 2999: expected 16 [re, im] pairs" \
  gaugephase offdiag bad_last_frame.json
refused "matrix_n0.json': 'n' must be a positive integer, got 0" gaugephase decompose matrix_n0.json
refused "bom.json' is not valid JSON: Unexpected UTF-8 BOM" gaugephase phases bom.json
refused "quoted.json' frame 0: a number is written as a string" gaugephase phases quoted.json
refused "deep.json' frames: nested deeper than json's decoder recurses" gaugephase phases deep.json
refused "$(cat fork_nan_frame.txt)" gaugephase offdiag fork_nan.json
refused "$(cat fork_nan_ahead_frame.txt)" gaugephase offdiag fork_nan_ahead.json
echo "check_cli: all checks passed"
