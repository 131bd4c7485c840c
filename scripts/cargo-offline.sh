#!/usr/bin/env bash
# cargo for a container with no registry: forwards to `cargo --offline` with
# every crates.io dependency of the workspace path-patched on the command
# line, so no manifest is edited and nothing needs removing before a commit.
#
#   scripts/cargo-offline.sh test -p recode-udp --lib --test predecode_differential
#   scripts/cargo-offline.sh build --release -p recode-bench --bin bench_hotpath
#
# rayon/serde/serde_derive/serde_json/rand/rand_chacha/crossbeam/parking_lot/
# bytes resolve to the stand-ins under bench/shims/ (read, never written);
# proptest and criterion resolve to empty packages generated under target/.
# What that means for a target:
#   - rayon runs inline on the calling thread; serde derives are no-ops.
#   - anything calling serde_json (the root crate's bins and tests, most
#     recode-bench bins, recode-core's trace/report code) does not compile.
#   - `proptest!` suites and `[[bench]]` criterion targets do not compile;
#     name targets explicitly (--lib / --test <name> / --bin <name>).
# The root Cargo.lock this writes is path-resolved and git-ignored.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
empties="$target/offline-empty"

patches=()
for dep in "$root"/bench/shims/*/; do
    dep="${dep%/}"
    patches+=(--config "patch.crates-io.${dep##*/}.path=\"$dep\"")
done
while read -r dep version; do
    if [ ! -f "$empties/$dep/src/lib.rs" ]; then
        mkdir -p "$empties/$dep/src"
        printf '[package]\nname = "%s"\nversion = "%s"\nedition = "2021"\n' \
            "$dep" "$version" >"$empties/$dep/Cargo.toml"
        : >"$empties/$dep/src/lib.rs"
    fi
    patches+=(--config "patch.crates-io.$dep.path=\"$empties/$dep\"")
done <<'EOF'
proptest 1.99.0
criterion 0.5.99
EOF

[ $# -gt 0 ] || { echo "usage: $0 <cargo subcommand> [args...]" >&2; exit 2; }
sub="$1"
shift
cd "$root"
CARGO_TARGET_DIR="$target" exec cargo "$sub" --offline "${patches[@]}" "$@"
