#!/usr/bin/env bash
# Heap allocations and bulk copies per commit, by call site, for any command.
#
#   scripts/alloc_profile.sh [-p REGEX] [-b 'BASE CMD'] -- CMD [ARGS...]
#
# Runs CMD under the LD_PRELOAD sampler built from scripts/alloc_profile.c,
# which counts every malloc/calloc/realloc and memcpy/memmove and samples
# the call stack of every 16th one. The commit count is the last integer
# that REGEX matches in CMD's output (default: the "N commits" of
# examples/tpcc_performance). With -b, BASE CMD runs the
# same way first and its counts are subtracted: give it a shorter run of
# the same experiment, and the report covers only the longer run's extra
# simulated time (the run phase, without load and setup).
#
# Each sampled stack is charged to its first frame outside the C and C++
# runtimes and std:: templates, resolved with `addr2line -i`: the report
# names the innermost project function of the inline chain at that frame
# and the outer function it was inlined into. Build the command with debug
# information (RelWithDebInfo, the default build type) to get names.
#
# Example (run phase of a serial TPC-C experiment, 5 simulated minutes):
#   scripts/alloc_profile.sh -b 'build/examples/tpcc_performance --minutes 5' \
#     -- build/examples/tpcc_performance --minutes 10
set -euo pipefail

pattern='([0-9]+) commits'
base_cmd=""
while getopts "p:b:" opt; do
  case "$opt" in
    p) pattern="$OPTARG" ;;
    b) base_cmd="$OPTARG" ;;
    *) sed -n '2,23p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
[[ "${1:-}" == "--" ]] && shift
if [[ $# -eq 0 ]]; then
  sed -n '2,23p' "$0"
  exit 2
fi

here="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/alloc_profile.so" "$here/alloc_profile.c" -ldl

# profile NAME CMD...: runs CMD under the sampler; leaves NAME.prof,
# NAME.out and NAME.commits in $work.
profile() {
  local name="$1"
  shift
  LD_PRELOAD="$work/alloc_profile.so" ALLOC_PROFILE_OUT="$work/$name.prof" "$@" > "$work/$name.out"
  grep -oE "$pattern" "$work/$name.out" | tail -1 | grep -oE '[0-9]+' \
    > "$work/$name.commits" || true
  if [[ ! -s "$work/$name.commits" ]]; then
    echo "alloc_profile: no match for /$pattern/ in the output of: $*" >&2
    exit 1
  fi
}

profile run "$@"
commits=$(cat "$work/run.commits")
if [[ -n "$base_cmd" ]]; then
  # shellcheck disable=SC2086
  profile base $base_cmd
  commits=$((commits - $(cat "$work/base.commits")))
fi
if (( commits <= 0 )); then
  echo "alloc_profile: $commits commits to divide by" >&2
  exit 1
fi

# Resolve every sampled frame once: object:offset -> inner, outer, and
# whether the frame is project code.
awk '$1 == "stack" { for (i = 5; i <= NF; ++i) print $i }' "$work"/*.prof |
  sort -u > "$work/frames"
: > "$work/names"
cut -d: -f1 "$work/frames" | sort -u | while read -r obj; do
  grep -F "$obj:" "$work/frames" | cut -d: -f2 > "$work/offsets"
  # addr2line -a prints one block per address, in input order: the address,
  # then function and file:line lines alternating, innermost first.
  addr2line -a -i -f -C -e "$obj" < "$work/offsets" 2>/dev/null |
    awk -v obj="$obj" -v offsets="$work/offsets" '
      # Drops the parameter list (and a template return type) from a name.
      function short(f) {
        gsub(/\(anonymous namespace\)/, "{anon}", f)
        gsub(/operator\(\)/, "operator<call>", f)
        sub(/\(.*$/, "", f)
        return f
      }
      function project(f) {
        return f != "??" && f !~ /(^|[ *&])(std|__gnu_cxx)::/ &&
               f !~ /^(operator new|__)/
      }
      function flush() {
        if (b == 0) return
        inner = ""
        for (k = 1; k <= n; ++k) if (project(fn[k])) { inner = fn[k]; break }
        outer = fn[n]
        printf "%s:%s\t%s\t%s\t%d\n", obj, off[b], inner, outer,
               project(outer) || inner != ""
      }
      BEGIN { while ((getline o < offsets) > 0) off[++m] = o }
      /^0x/ { flush(); ++b; n = 0; line = 0; next }
      { if (++line % 2 == 1) fn[++n] = short($0) }
      END { flush() }' >> "$work/names"
done

# Charge each stack to its first frame that resolves to project code.
report() {
  local kind="$1" unit="$2"
  local field=3
  [[ "$unit" == "bytes" ]] && field=4
  awk -F'\t' -v kind="$kind" -v unit="$unit" -v field="$field" \
      -v commits="$commits" '
    FILENAME ~ /names$/ {
      inner[$1] = $2; outer[$1] = $3; ok[$1] = $4
      next
    }
    { split($0, f, " ") }
    f[1] == "every" { every = f[2]; next }
    f[1] == "total" && f[2] == kind {
      side = "run"
      if (FILENAME ~ /base[.]prof$/) side = "base"
      total[side] = f[field]
      next
    }
    f[1] == "stack" && f[2] == kind {
      n = split($0, f, " ")
      sign = 1
      if (FILENAME ~ /base[.]prof$/) sign = -1
      site = "(C/C++ runtime only)"
      for (i = 5; i <= n; ++i) {
        if (!ok[f[i]]) continue
        site = outer[f[i]]
        if (inner[f[i]] != "" && inner[f[i]] != site) {
          site = inner[f[i]] "  in  " site
        }
        break
      }
      sum[site] += sign * f[field] * every
    }
    END {
      printf "%s %s per commit: %.1f\n", kind, unit,
             (total["run"] - total["base"]) / commits
      fflush()
      cmd = "sort -k1,1 -gr | head -n 12"
      for (s in sum) printf "%10.1f  %s\n", sum[s] / commits, s | cmd
      close(cmd)
    }' "$work/names" "$work"/*.prof
}

echo "commits: $commits (every 16th event sampled; sites are estimates)"
echo
report malloc calls
echo
report copy bytes
