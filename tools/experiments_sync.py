#!/usr/bin/env python3
"""Keep the report-generated tables embedded in EXPERIMENTS.md current.

EXPERIMENTS.md embeds sections of `jumprepc report` output between marker
lines:

    <!-- BEGIN report: Unconditional jumps (Table 4 shape) -->
    ...section body, without its "## " heading...
    <!-- END report -->

Usage:
    jumprepc report BENCH_baseline.json > report.md
    tools/experiments_sync.py report.md [EXPERIMENTS.md]          rewrite
    tools/experiments_sync.py --check report.md [EXPERIMENTS.md]  verify

With --check nothing is written; the exit status is 1 when an embedded
block differs from the report (or names a section the report lacks).
"""

import re
import sys

BLOCK = re.compile(
    r"^(<!-- BEGIN report: (?P<heading>[^\n]+?) -->\n)(?P<body>.*?)^(<!-- END report -->)$",
    re.S | re.M,
)


def sections(report):
    """Map each "## " heading of a markdown report to its body text."""
    out, heading, lines = {}, None, []
    for line in report.splitlines():
        if line.startswith(("# ", "## ")):
            if heading is not None:
                out[heading] = "\n".join(lines).strip("\n")
            heading = line[3:] if line.startswith("## ") else None
            lines = []
        else:
            lines.append(line)
    if heading is not None:
        out[heading] = "\n".join(lines).strip("\n")
    return out


def main(argv):
    check = "--check" in argv
    args = [a for a in argv if a != "--check"]
    if len(args) not in (1, 2):
        sys.exit(__doc__)
    report_path = args[0]
    doc_path = args[1] if len(args) == 2 else "EXPERIMENTS.md"
    found = sections(open(report_path).read())
    doc = open(doc_path).read()
    problems = []

    def replace(m):
        heading = m.group("heading")
        if heading not in found:
            problems.append(f"report has no section {heading!r}")
            return m.group(0)
        body = "\n" + found[heading] + "\n\n"
        if m.group("body") != body:
            problems.append(f"section {heading!r} drifted from the report")
        return m.group(1) + body + m.group(4)

    new = BLOCK.sub(replace, doc)
    blocks = len(BLOCK.findall(doc))
    if blocks == 0:
        problems.append(f"{doc_path} embeds no report sections")
    if check:
        for p in problems:
            print(f"{doc_path}: {p}", file=sys.stderr)
        if problems:
            print(f"regenerate with: tools/experiments_sync.py {report_path} {doc_path}",
                  file=sys.stderr)
            return 1
        print(f"{doc_path}: {blocks} embedded report sections current")
        return 0
    if any("no section" in p or "embeds no" in p for p in problems):
        for p in problems:
            print(f"{doc_path}: {p}", file=sys.stderr)
        return 1
    with open(doc_path, "w") as f:
        f.write(new)
    print(f"{doc_path}: {blocks} embedded report sections written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
