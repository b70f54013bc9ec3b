#!/usr/bin/env bash
# Run a command and pass only when it exits with the given status:
#
#     expect_exit.sh STATUS COMMAND [ARG...]
want=$1
shift
"$@"
got=$?
if [ "$got" -ne "$want" ]; then
    echo "expected exit status $want, got $got: $*" >&2
    exit 1
fi
