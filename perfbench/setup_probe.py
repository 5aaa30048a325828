"""Set-up work a fresh interpreter does before its first certificate.

Imports liftfix and liftfix.cli, then parses every instance file named in
the listing with serialize.instance_from_json (a rows body runs check_sfree
here).  Run as: python3 perfbench/setup_probe.py LISTING.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import liftfix  # noqa: E402
import liftfix.cli  # noqa: E402,F401
from liftfix.serialize import instance_from_json  # noqa: E402

for path in json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")):
    instance_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
