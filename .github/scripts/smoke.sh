# Helpers shared by the tivd process smokes (tivd-smoke,
# multishard-smoke, chaos-smoke). Source from a job step:
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
