"""The one writer of the package's CSV artifacts and the one reader of
the text files it accepts."""

import csv
import os
import re

# what errors="surrogateescape" decodes a byte that is not UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")


def write_csv(path, schema, header, rows):
    """Write ``# schema: <schema>``, the header and one line per row,
    each line ending in a newline; returns the path.  Cells are written
    as str() writes them, quoted only where they hold a comma or quote."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def text_lines(path, error):
    """``(f"{path}:{lineno}", line)`` for each stripped line of a UTF-8
    text file but blanks and '#' comments, streamed.  The file is opened
    here, before any line is read; one that cannot be opened raises
    ``error`` naming the path, a line that is not UTF-8 one naming path:lineno."""
    try:
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}")

    def lines():
        with fh:
            for lineno, line in enumerate(fh, start=1):
                if _UNDECODED.search(line):
                    raise error(f"{path}:{lineno}: not UTF-8 text")
                line = line.strip()
                if line and not line.startswith("#"):
                    yield f"{path}:{lineno}", line
    return lines()
