"""Run one SQL file against an in-memory database and print a digest of
the result rows.  Started as a child process with ``LD_LIBRARY_PATH``
pointing at the original or the rewritten ``libsqlite3.so.0``."""

import hashlib
import sqlite3
import sys


def main(path: str) -> None:
    with open(path) as f:
        sql = f.read()
    rows = sqlite3.connect(":memory:").execute(sql).fetchall()
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    print(digest, len(rows), sqlite3.sqlite_version)


if __name__ == "__main__":
    main(sys.argv[1])
