#!/usr/bin/env bash
# Builds `vbench` (and, with `--test`, its self-test binary) from source with
# bare rustc, the way tools/offline/verify.sh builds bins: the cargo registry
# is unreachable, so the five external crates come from tools/offline/stubs.
#
# Output directory: $VBENCH_OUT, else $CARGO_TARGET_DIR/vbench, else
# target/benchmark. Prints the directory on the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${VBENCH_OUT:-${CARGO_TARGET_DIR:+$CARGO_TARGET_DIR/vbench}}
OUT=${OUT:-target/benchmark}
RUSTC=${RUSTC:-rustc}
FLAGS=(--edition 2021 -O -C debuginfo=0 -L "$OUT")
WANT_TEST=0
[ "${1:-}" = --test ] && WANT_TEST=1

for need in crates tools/offline/stubs benchmark/src/main.rs; do
  [ -e "$need" ] || { echo "vbench build: $need is missing; run from a full checkout" >&2; exit 2; }
done
mkdir -p "$OUT"

# Rebuild only when a source is newer than the binary it feeds.
newer_than() { # newer_than <artifact> <paths...>: true if any source is newer
  local art=$1; shift
  [ -e "$art" ] || return 0
  [ -n "$(find "$@" -name '*.rs' -newer "$art" -print -quit)" ]
}

ext() { for d in "$@"; do printf -- '--extern\n%s=%s/lib%s.rlib\n' "$d" "$OUT" "$d"; done; }

LIB_SRCS=(crates/compute crates/simd crates/trace crates/device crates/metrics crates/tensor
  crates/sim crates/codec crates/dnn crates/broker crates/workload crates/sched crates/server
  crates/tune crates/pipeline crates/net tools/offline/stubs)
DEPS=(vserve_net vserve_server vserve_sched vserve_codec vserve_tensor vserve_simd vserve_compute
  vserve_dnn vserve_trace vserve_device vserve_workload vserve_sim)

if newer_than "$OUT/libvserve_net.rlib" "${LIB_SRCS[@]}"; then
  echo "vbench build: libraries -> $OUT" >&2
  stub() { $RUSTC "${FLAGS[@]}" -A warnings --crate-type rlib --crate-name "$1" \
    "tools/offline/stubs/$1.rs" --out-dir "$OUT"; }
  lib() { # lib <crate dir> <crate name> [deps...]
    local src=crates/$1/src/lib.rs name=$2; shift 2
    mapfile -t e < <(ext "$@")
    $RUSTC "${FLAGS[@]}" -A warnings --crate-type rlib --crate-name "$name" "$src" "${e[@]}" --out-dir "$OUT"
  }
  for s in rand crossbeam parking_lot bytes; do stub "$s"; done
  lib compute  vserve_compute
  lib simd     vserve_simd
  lib trace    vserve_trace
  lib device   vserve_device
  lib metrics  vserve_metrics
  lib tensor   vserve_tensor   vserve_compute vserve_simd
  lib sim      vserve_sim      vserve_metrics rand
  lib codec    vserve_codec    vserve_compute vserve_simd vserve_tensor
  lib dnn      vserve_dnn      vserve_compute vserve_simd vserve_tensor rand
  lib broker   vserve_broker   bytes parking_lot
  lib workload vserve_workload vserve_codec vserve_device vserve_sim vserve_tensor
  lib sched    vserve_sched
  lib server   vserve_server   vserve_sched vserve_codec vserve_compute vserve_device vserve_dnn vserve_metrics vserve_sim vserve_tensor vserve_trace vserve_workload crossbeam
  lib tune     vserve_tune     vserve_server vserve_sched vserve_workload
  lib pipeline vserve_pipeline vserve_broker vserve_device vserve_metrics vserve_sim vserve_workload vserve_server vserve_codec vserve_tensor crossbeam
  lib net      vserve_net      vserve_server vserve_sched vserve_dnn vserve_metrics vserve_trace vserve_device vserve_workload vserve_tune vserve_pipeline
fi

mapfile -t e < <(ext "${DEPS[@]}")
if newer_than "$OUT/vbench" benchmark/src || [ "$OUT/libvserve_net.rlib" -nt "$OUT/vbench" ]; then
  echo "vbench build: vbench -> $OUT" >&2
  $RUSTC "${FLAGS[@]}" --crate-type bin --crate-name vbench benchmark/src/main.rs "${e[@]}" -o "$OUT/vbench"
fi
if [ "$WANT_TEST" = 1 ]; then
  if newer_than "$OUT/vbench_test" benchmark/src || [ "$OUT/libvserve_net.rlib" -nt "$OUT/vbench_test" ]; then
    echo "vbench build: vbench_test -> $OUT" >&2
    $RUSTC "${FLAGS[@]}" --test --crate-name vbench_test benchmark/src/main.rs "${e[@]}" -o "$OUT/vbench_test"
  fi
fi
echo "$OUT"
