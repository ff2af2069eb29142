#!/usr/bin/env python3
"""Transcript golden for the command-line surface of ba_cli, lint_trace and
stamp_trace.

Replays every line of cli_transcript.cases in a fresh work directory and
compares, per command, the exit code, stdout, stderr and the SHA-256 of
every file the command wrote with cli_transcript.golden.

  cli_transcript.py BIN_DIR WORK_DIR [--golden FILE] [--record]

BIN_DIR holds the three binaries. --record rewrites the golden instead of
comparing against it.

Case-file lines (run in WORK_DIR, one per line, shell-quoted):
  # ...                        comment
  ba_cli ARGS... (or lint_trace, stamp_trace)
  ~ ba_cli ARGS...             timing-dependent case: digits in its output
                               and in the JSON files it writes are masked
                               (kill/resume counts)
  @mkdir DIR                   create a directory
  @copy SRC DST                copy a file; {src} names the source tree
  @append SRC DST TEXT         DST = SRC + TEXT (a corrupted copy; TEXT
                               takes backslash escapes such as \\n)
  @replace SRC DST OLD NEW     DST = SRC with OLD replaced by NEW

Masked everywhere: wall-clock figures (sweep and serve summaries, the wall
fields of the sweep and service JSON reports) and which first-generation
worker a killed campaign reports. The service's lease, heartbeat and shard
files are not listed: they are control plane (who computed what, and how
far a killed worker got), not results.
"""

import argparse
import difflib
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys

TOOLS = ("ba_cli", "lint_trace", "stamp_trace")
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(HERE)

TEXT_MASKS = [
    (re.compile(r"[0-9.]+s wall \([0-9.]+ points/sec\)"),
     "<wall>s wall (<rate> points/sec)"),
    (re.compile(r"respawns, [0-9.]+s -> "), "respawns, <wall>s -> "),
    (re.compile(r"serve: worker \d+ died"), "serve: worker <k> died"),
]
JSON_WALL = re.compile(
    rb'"(wall_seconds|points_per_sec|wall_micros|rows_per_sec)": [0-9.eE+-]+')
CONTROL_PLANE = re.compile(r"(^|/)(leases|shards)/")


def snapshot(work):
    files = {}
    for root, _, names in os.walk(work):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, work)] = f.read()
    return files


def file_digest(rel, data, volatile):
    if rel.endswith(".json"):
        data = JSON_WALL.sub(rb'"\1": <wall>', data)
        if volatile:
            data = re.sub(rb"\d+", b"#", data)
    return hashlib.sha256(data).hexdigest()


def mask(text, volatile):
    for pattern, repl in TEXT_MASKS:
        text = pattern.sub(repl, text)
    if volatile:
        text = re.sub(r"\d+", "#", text)
    return text


def directive(words, work):
    if words[0] == "@mkdir":
        os.makedirs(os.path.join(work, words[1]), exist_ok=True)
        return
    op, src, dst = words[0], words[1], words[2]
    src = src.replace("{src}", SRC)
    with open(os.path.join(work, src), "rb") as f:
        data = f.read()
    if op == "@append":
        data += words[3].encode().decode("unicode_escape").encode()
    elif op == "@replace":
        data = data.replace(words[3].encode(), words[4].encode())
    elif op != "@copy":
        raise SystemExit(f"cli_transcript: unknown directive {op}")
    with open(os.path.join(work, dst), "wb") as f:
        f.write(data)


def run_case(line, bin_dir, work):
    volatile = line.startswith("~ ")
    words = shlex.split(line[2:] if volatile else line)
    if words[0] not in TOOLS:
        raise SystemExit(f"cli_transcript: not a tool command: {line}")
    before = snapshot(work)
    proc = subprocess.run([os.path.join(bin_dir, words[0])] + words[1:],
                          cwd=work, capture_output=True, timeout=300)
    after = snapshot(work)
    out = [f"$ {line}"]
    for prefix, stream in (("> ", proc.stdout), ("! ", proc.stderr)):
        text = mask(stream.decode("utf-8", "replace"), volatile)
        out += [prefix + l for l in text.splitlines()]
    for rel in sorted(after):
        if before.get(rel) != after[rel] and not CONTROL_PLANE.search(rel):
            out.append(f"= {rel} {file_digest(rel, after[rel], volatile)}")
    out.append(f"exit {proc.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bin_dir")
    ap.add_argument("work_dir")
    ap.add_argument("--golden",
                    default=os.path.join(HERE, "cli_transcript.golden"))
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    bin_dir = os.path.abspath(args.bin_dir)
    work = os.path.abspath(args.work_dir)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    transcript = []
    with open(os.path.join(HERE, "cli_transcript.cases")) as cases:
        for line in cases:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("@"):
                directive(shlex.split(line), work)
            else:
                transcript += run_case(line, bin_dir, work) + [""]

    if args.record:
        with open(args.golden, "w") as f:
            f.write("\n".join(transcript))
        print(f"recorded {args.golden}")
        return 0
    with open(args.golden) as f:
        golden = f.read().split("\n")
    if golden == transcript:
        print(f"transcript matches {args.golden}")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        [l + "\n" for l in golden], [l + "\n" for l in transcript],
        "golden", "actual"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
