#!/usr/bin/env bash
# Lists the library functions that no shipped binary reaches.
#
#   tools/unreachable_scan.sh <build-dir>
#
# Configures the repository as a Debug build with -O0 -fno-inline
# -ffunction-sections -fdata-sections, links with --gc-sections, and builds
# every executable under bench/, examples/ and tools/. perfbench's sources
# are compiled with the same flags and linked against that build's src/
# libraries, so src/ is compiled once. It then prints, one per line and
# sorted, the demangled name of every pap:: function that is defined (nm
# type T or W) in a src/ library but kept in none of those executables.
# Each mangled name is one line, so constructor and destructor variants
# count separately; std:: instantiations are not counted.
#
# CI diffs the output against tools/unreachable_baseline.txt and fails on
# any name that the baseline does not list.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 64
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$1"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"

flags="-O0 -fno-inline -ffunction-sections -fdata-sections"
configure() {  # <source-dir> <binary-dir>
  cmake -S "$1" -B "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
}

configure "$root" "$out/main"
# bench/ is built in benchbuild/ (see the top-level CMakeLists.txt).
for dir in benchbuild examples tools; do
  make -C "$out/main/$dir" -j "$jobs" > /dev/null
done

# perfbench (perfbench/CMakeLists.txt builds these sources into one binary
# against pap_serve, pap_scenario and pap_core), on the libraries above.
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$out/main/CMakeCache.txt")"
mkdir -p "$out/perfbench"
objs=()
pids=()
for src in "$root"/perfbench/src/*.cpp; do
  obj="$out/perfbench/$(basename "$src" .cpp).o"
  objs+=("$obj")
  # shellcheck disable=SC2086  # $flags is a list of flags
  "$cxx" -std=c++20 -g $flags -I"$root/src" -I"$root/perfbench/src" \
    -c "$src" -o "$obj" &
  pids+=("$!")
done
for pid in "${pids[@]}"; do wait "$pid"; done
"$cxx" -Wl,--gc-sections "${objs[@]}" -Wl,--start-group "$out"/main/src/*.a \
  -Wl,--end-group -pthread -o "$out/perfbench/perfbench"

exes=()
for dir in bench examples tools; do
  while IFS= read -r f; do
    exes+=("$f")
  done < <(find "$out/main/$dir" -maxdepth 1 -type f -perm -u+x | sort)
done
exes+=("$out/perfbench/perfbench")

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Every pap:: function the libraries define, by mangled name.
# A mangled name that opens with a nested name in namespace pap
# (_ZN3pap..., _ZNK3pap...) is a pap:: function; std:: templates
# instantiated over pap types open with _ZSt/_ZNSt and are left out.
nm --defined-only "$out"/main/src/*.a 2>/dev/null \
  | awk '($2 == "T" || $2 == "W") && $3 ~ /^_ZN[VKRO]*3pap/ { print $3 }' \
  | LC_ALL=C sort -u > "$tmp/lib"

# Every symbol kept in any executable.
for exe in "${exes[@]}"; do
  nm --defined-only "$exe" | awk '{ print $3 }'
done | LC_ALL=C sort -u > "$tmp/kept"

LC_ALL=C comm -23 "$tmp/lib" "$tmp/kept" | c++filt | LC_ALL=C sort
