#!/usr/bin/env bash
# Program-caller scan: every lightllm:: function that src/'s archives,
# tools/libpfs_cli_lib.a or bench/libpfs_bench_common.a define must be
# kept by a program (pfs_cli, a bench binary or perf/'s pfs_perf) or be
# named, with a reason, in tools/reach_allow.txt (at most 15 entries,
# each still unreached); tests and examples do not count as callers.
#
#   tools/reach.sh [build-dir]        # default: <repo>/build-reach
# Builds at -O0 with one section per function and links programs with
# --gc-sections, so a program defines exactly what it reaches (-O1
# still inlines small helpers into their callers). Names are compared
# with template arguments, ABI tags and parameters stripped; implicit
# special members and std:: helpers instantiated on our types are
# dropped. Prints each offending name and exits 1 if there is any.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$root/build-reach}"
flags=(-G Ninja -DCMAKE_BUILD_TYPE=None
    "-DCMAKE_CXX_FLAGS=-O0 -fkeep-inline-functions -ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
cmake -S "$root" -B "$out/tree" "${flags[@]}" \
    -DPFS_BUILD_TESTS=OFF -DPFS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$out/tree" -j "$(nproc)" >/dev/null
cmake -S "$root/perf" -B "$out/perf" "${flags[@]}" >/dev/null
cmake --build "$out/perf" --target pfs_perf -j "$(nproc)" >/dev/null

special='/^[^(]* std::/d; /::~/d
    /::([A-Za-z_]+)::\1\((([A-Za-z_]+::)*\1( const)?&&?)?\)/d
    /::([A-Za-z_]+)::operator=\(([A-Za-z_]+::)*\1( const)?&&?\)/d'
names() {  # defined text symbols as normalised lightllm:: names
    nm -C --defined-only "$@" 2>/dev/null | awk '$2 == "T" || $2 == "W"' |
        cut -d' ' -f3- |
        sed -E 's/operator(<<?|>>?)=?/operator@/; s/operator\(\)/operator@@/
            :a; s/<[^<>]*>//g; ta; s/\[abi:[a-z0-9]+\]//g
            s/^[^(]* (lightllm::)/\1/' |
        grep '^lightllm::' | sed -E "$special; s/\(.*//" | sort -u
}
programs=("$out/tree/tools/pfs_cli" "$out/perf/pfs_perf")
for f in "$out"/tree/bench/*; do
    [[ -f $f && -x $f ]] && programs+=("$f")
done
[[ ${#programs[@]} -eq 19 ]] ||
    { echo "reach: expected 19 programs, found ${#programs[@]}" >&2; exit 2; }

comm -23 <(names "$out"/tree/src/libpfs_*.a "$out/tree/tools/libpfs_cli_lib.a" \
    "$out/tree/bench/libpfs_bench_common.a") <(names "${programs[@]}") >"$out/unreached.txt"
sed -E 's/[[:space:]]+#.*//; /^(#|$)/d' "$root/tools/reach_allow.txt" |
    sort -u >"$out/allowed.txt"
status=0
report() {  # report FILE MESSAGE: print FILE's names; fail when any
    [[ -s $1 ]] || return 0
    cat "$1"; echo "reach: $(wc -l <"$1") $2" >&2; status=1
}
comm -23 "$out/unreached.txt" "$out/allowed.txt" >"$out/missing.txt"
report "$out/missing.txt" "library functions have no program caller and no allow-list entry"
comm -13 "$out/unreached.txt" "$out/allowed.txt" >"$out/stale.txt"
report "$out/stale.txt" "allow-list entries name no unreached function"
(($(wc -l <"$out/allowed.txt") <= 15)) || { echo "reach: over 15 allow-list entries" >&2; status=1; }
((status == 0)) && echo "reach: every library function has a program caller or an allow-list entry"
exit "$status"
