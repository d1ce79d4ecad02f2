"""Starts ``python -m invschub`` queries for a worker, one at a time.

Reads one JSON argv list per line on stdin and answers each with one JSON
line: the exit code, and stdout and stderr in base64.  When stdin closes it
answers with the peak RSS, in KiB, of the largest query process.  It
imports nothing of invschub, so that peak is the query's own.
"""

import base64
import json
import resource
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "invschub", *argv], capture_output=True, timeout=120
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = -1, b"", b"timed out after 120 s"
        reply = {
            "returncode": code,
            "stdout": base64.b64encode(out).decode("ascii"),
            "stderr": base64.b64encode(err).decode("ascii"),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stdout.write(json.dumps({"child_rss_kb": peak}) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
