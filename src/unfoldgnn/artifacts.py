"""The one writer of the package's CSV artifacts."""

import csv
import os


def write_csv(path, schema, header, rows):
    """Write ``# schema: <schema>``, the header and one line per row,
    each line ending in a newline; returns the path.  Cells are written
    as str() writes them, quoted only where they hold a comma or quote."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path
