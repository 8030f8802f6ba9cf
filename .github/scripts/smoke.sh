# Helpers shared by the tivd process smokes (multishard-smoke,
# chaos-smoke). Source from a job step:
#
#   . .github/scripts/smoke.sh

# wait_up URL — poll until URL answers 2xx (10 s budget).
wait_up() {
  for _ in $(seq 1 50); do
    curl -sf "$1" > /dev/null && return 0
    sleep 0.2
  done
  echo "::error::$1 did not come up"
  return 1
}

# wait_exit PID — wait for the process to exit (10 s budget).
wait_exit() {
  for _ in $(seq 1 50); do
    kill -0 "$1" 2>/dev/null || return 0
    sleep 0.2
  done
  echo "::error::process $1 did not exit"
  return 1
}

# lookups PORT... — each daemon's query-cache lookups so far (hits +
# misses on /healthz), one number per port on one line.
lookups() {
  for p in "$@"; do
    curl -sf "http://127.0.0.1:$p/healthz" |
      sed -E 's/.*"hits":([0-9]+),"misses":([0-9]+).*/\1 \2/' | awk '{ printf "%d ", $1 + $2 }'
  done
  echo
}

# one_moved BEFORE AFTER — succeed when exactly one position differs
# between two `lookups` lines: the query between them reached one shard.
one_moved() {
  local before=($1) after=($2) moved=0 i
  for i in "${!before[@]}"; do
    [ "${before[$i]}" = "${after[$i]}" ] || moved=$((moved + 1))
  done
  if [ "$moved" -ne 1 ]; then
    echo "::error::$moved shards' cache lookups moved ($1-> $2), want exactly 1"
    return 1
  fi
}
