#!/usr/bin/env bash
# Symbol hygiene of the per-ISA packet-loop objects (the packet_isa_symbols
# ctest; see CMakeLists.txt and src/mc/packet_isa.hpp).
#
# packet_kernel.cpp and vmath.cpp are compiled once per ISA, the AVX-512
# copy with -mavx512*. Whatever such an object defines as an external or
# weak symbol can be bound by the linker to a reference from any other
# TU. A weak (COMDAT) copy of an inline or template function compiled
# for AVX-512 may be the one the linker keeps for every caller, and then
# an AVX2-only CPU faults with SIGILL outside the dispatched loop. So for
# each ISA's objects this asserts that
#   1. they define no weak function symbol (nm type W/w);
#   2. every external symbol they define is in phodis::mc::<isa>:: — the
#      only exception is the weak data word DW.ref.__gxx_personality_v0,
#      which holds the same address in every object;
#   3. they reference no other ISA's namespace;
#   4. they do define <isa>::run_packet, vlog and vsincos_2pi (so an empty
#      or non-code object list cannot pass vacuously).
#
# Usage: check_packet_symbols.sh NM ISA=OBJ[;OBJ...] [ISA=OBJ[;OBJ...] ...]
# Exit status 0 when every check passes, 1 otherwise.
set -u

if [ $# -lt 2 ]; then
  echo "usage: $0 NM ISA=OBJ[;OBJ...] ..." >&2
  exit 2
fi
nm_tool=$1
shift

isas=()
for spec in "$@"; do
  isas+=("${spec%%=*}")
done

failures=0
fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

for spec in "$@"; do
  isa=${spec%%=*}
  IFS=';' read -r -a objects <<< "${spec#*=}"
  if [ ${#objects[@]} -eq 0 ]; then
    fail "$isa: no object files given"
    continue
  fi
  prefix="phodis::mc::${isa}::"
  defined_all=""
  for obj in "${objects[@]}"; do
    if ! defined=$("$nm_tool" --defined-only -C "$obj"); then
      fail "$isa: $nm_tool failed on $obj"
      continue
    fi
    if ! undefined=$("$nm_tool" --undefined-only -C "$obj"); then
      fail "$isa: $nm_tool failed on $obj"
      continue
    fi
    defined_all+="$defined"$'\n'
    while IFS= read -r line; do
      [ -z "$line" ] && continue
      type=$(sed -E 's/^[0-9a-fA-F]* *([A-Za-z?-]) .*/\1/' <<< "$line")
      name=$(sed -E 's/^[0-9a-fA-F]* *[A-Za-z?-] //' <<< "$line")
      case $type in
        W | w) fail "$isa: weak function '$name' in $obj" ;;
      esac
      case $type in
        [A-Z] | u)
          if [[ $name != "$prefix"* ]] &&
             ! [[ $type == V && $name == DW.ref.__gxx_personality_v0 ]]; then
            fail "$isa: external symbol '$name' ($type) outside $prefix in $obj"
          fi
          ;;
      esac
    done <<< "$defined"
    for other in "${isas[@]}"; do
      [ "$other" = "$isa" ] && continue
      while IFS= read -r name; do
        [ -n "$name" ] && fail "$isa: $obj references '$name'"
      done < <(sed -nE "s/^ *[A-Za-z] (phodis::mc::${other}::.*)/\1/p" \
                 <<< "$undefined")
    done
  done
  for fn in run_packet vlog vsincos_2pi; do
    if ! grep -qF " ${prefix}${fn}(" <<< "$defined_all"; then
      fail "$isa: ${prefix}${fn} is not defined by its objects"
    fi
  done
  echo "$isa: checked ${#objects[@]} object(s)"
done

if [ "$failures" -ne 0 ]; then
  echo "packet ISA symbol check: $failures failure(s)"
  exit 1
fi
echo "packet ISA symbol check: OK"
