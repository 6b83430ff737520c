#!/bin/sh
# Runs one asrank_cli invocation that must be rejected as a usage error:
# exit code 2, with a message naming the offending flag.
#
#   cli_usage_error.sh <asrank_cli> <flag> <command> [--flag value ...]
cli=$1
flag=$2
shift 2
out=$("$cli" "$@" 2>&1)
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2, got $rc: $out"
  exit 1
fi
case "$out" in
  *"--$flag"*) ;;
  *) echo "message does not name --$flag: $out"; exit 1 ;;
esac
