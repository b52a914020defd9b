#!/bin/sh
# The one normalisation a bench --json document gets before a byte-for-
# byte comparison (check_jobs_identity.sh, check_golden.sh): the "meta"
# object is dropped. It holds self-timed facts such as wall_ms — real
# elapsed time, not simulation output — so it varies run to run by
# construction.
#
# Usage: normalize_json.sh IN.json > OUT.json
exec sed -e 's/,"meta":{[^}]*}//' "$1"
