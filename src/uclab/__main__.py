import gc
import sys

# A CLI process makes almost no reference cycles: with the collector off,
# `all`, `lemma` and `coupling delta-search` each leave the same ~540
# unreachable objects, all from imports and argparse, while with it on
# `all` makes 34 automatic passes over the growing heap.  So the process
# runs without it, turned off before uclab.cli and numpy load; the memory
# goes back when the process ends.
gc.disable()

# numpy.random imports secrets, which imports hmac, which imports _hashlib
# and so maps OpenSSL's libcrypto: 3.4 MiB of resident memory and about
# 3 ms, for OS entropy that no seeded generator draws.  Blocked here, hmac
# and hashlib fall back to CPython's builtin hashes; setdefault leaves a
# _hashlib that is already loaded alone, and library callers keep theirs.
sys.modules.setdefault("_hashlib", None)

from .cli import console_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(console_main())
