#!/usr/bin/env bash
# Runs the full benchmark set twice with one seed and fails unless the
# two sets agree: end-to-end metrics within their bounds, exact counters
# identical, ledger closed. Arguments (-seed N, -seconds S) pass through.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -agree "$@"
