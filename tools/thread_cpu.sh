#!/usr/bin/env bash
# Server CPU per request: runs one perfbench command and reports the CPU
# time its threads used, grouped by thread name.
#
#   tools/thread_cpu.sh cargo run --offline --release --quiet \
#       --manifest-path perfbench/Cargo.toml -- --workload read-hot --seed 1 --seconds 30 --trace 0
#
# While the command runs, every 0.2 s it reads /proc/<pid>/task/*/{comm,stat}
# of the command and its descendants (read only) and keeps each thread's
# latest utime+stime. It then prints CPU ms per thread name (numbered names
# such as serve-worker-0, serve-worker-1 fold into `serve-worker-*`), and
# worker CPU ms per attempted request, where `attempted` comes from the
# command's last stdout line (perfbench's JSON report). That line is also
# printed. A thread's last 0.2 s before it exits can be missed.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <perfbench command...>" >&2
    exit 2
fi

report=$(mktemp)
trap 'rm -f "$report"' EXIT
"$@" > "$report" &
root=$!
hz=$(getconf CLK_TCK)

declare -A ticks comm

# The pids of `$1` and all its descendants.
family() {
    local p=$1 kids c
    echo "$p"
    kids=$(cat /proc/"$p"/task/*/children 2>/dev/null || true)
    for c in $kids; do
        family "$c"
    done
}

sample() {
    local p t name stat rest
    for p in $(family "$root"); do
        for t in /proc/"$p"/task/*; do
            # A thread may exit between the two reads; skip it then.
            name=$(cat "$t/comm" 2>/dev/null) || continue
            stat=$(cat "$t/stat" 2>/dev/null) || continue
            rest=${stat##*) }
            # shellcheck disable=SC2086
            set -- $rest
            # After `pid (comm) `: state is field 1, utime 12, stime 13.
            ticks[$p/${t##*/}]=$((${12} + ${13}))
            comm[$p/${t##*/}]=$name
        done
    done
}

while kill -0 "$root" 2>/dev/null; do
    sample
    sleep 0.2
done
wait "$root"
status=$?

declare -A by_name
for key in "${!ticks[@]}"; do
    name=${comm[$key]}
    [[ $name =~ ^(.*-)[0-9]+$ ]] && name="${BASH_REMATCH[1]}*"
    by_name[$name]=$((${by_name[$name]:-0} + ${ticks[$key]}))
done

last=$(tail -n 1 "$report")
attempted=$(grep -o '"attempted":[0-9]*' <<<"$last" | cut -d: -f2 || true)
echo "thread_name cpu_ms"
for name in "${!by_name[@]}"; do
    echo "$name $((${by_name[$name]} * 1000 / hz))"
done | sort
workers=${by_name['serve-worker-*']:-0}
if [ -n "$attempted" ] && [ "$attempted" -gt 0 ]; then
    awk -v t="$workers" -v hz="$hz" -v n="$attempted" \
        'BEGIN { printf "worker_cpu_ms_per_request %.3f (%d requests)\n", t * 1000 / hz / n, n }'
fi
echo "$last"
exit "$status"
