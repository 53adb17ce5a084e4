"""One workload process: set up the prefhedge CLI, run one command, record it.

Usage: python3 child.py SPEC.json

SPEC holds ``mode`` ("setup", "plain" or "traced"), the CLI ``argv``, the
``config`` path, the ``out`` directory, the ``seed`` override (or null) and
the ``record`` path.  The record is a JSON object:

- ``ready``: time.monotonic() once ``prefhedge.cli`` is imported and the
  config parsed.  CLOCK_MONOTONIC is system-wide, so the parent subtracts
  its own spawn time to get the set-up time.
- ``exit``, ``command_s``, ``command_cpu_s``, ``command_end``,
  ``peak_rss_mb``: exit code of ``cli.main``, its wall and CPU time, the
  time.monotonic() when it returned, and the process's peak resident memory
  after it.
- ``pi_identity`` (when asked for): whether the saved policy surface holds
  pi == myopic + hedging exactly at every node.
- ``layers`` and ``absent`` (traced mode): per-layer metrics and the names
  that could not be measured.  ``trace_overhead_pct`` compares the traced
  command_s with the same command less the calibrated cost of recording
  its spans (``Tracer.overhead_seconds``).
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _pi_identity(out_dir):
    import numpy as np
    from prefhedge.persist import load_policy_surface

    pol = load_policy_surface(Path(out_dir) / "policy_surface.bin")
    return bool(np.array_equal(pol.pi, pol.myopic + pol.hedging))


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    import prefhedge.cli as cli

    cli.RunConfig.from_file(spec["config"], seed_override=spec["seed"],
                            out_override=spec["out"])
    record = {"ready": time.monotonic()}
    try:
        if spec["mode"] == "setup":
            return
        tracer = None
        if spec["mode"] == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        start = time.monotonic()
        cpu_start = time.process_time()
        try:
            record["exit"] = cli.main(spec["argv"])
        except Exception:       # a crash is a result to report, not to hide
            traceback.print_exc()
            record["exit"] = None
        record["command_cpu_s"] = time.process_time() - cpu_start
        record["command_end"] = time.monotonic()
        record["command_s"] = record["command_end"] - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            sims_ok = ("mc.simulate" in tracer.installed
                       and "mc.simulate" not in tracer.hook_failures)
            rng_s = tracing.replay_rng(tracer.simulations()) if sims_ok else None
            record["layers"], record["absent"] = tracer.metrics(rng_s)
            overhead = tracer.overhead_seconds()
            record["layers"]["trace_overhead_pct"] = (
                100.0 * overhead / (record["command_s"] - overhead))
            record["absent_names"] = tracer.missing
            tracer.write_spans(Path(spec["out"]) / "spans.json")
        if spec.get("check_policy"):
            try:
                record["pi_identity"] = _pi_identity(spec["out"])
            except Exception:
                traceback.print_exc()
                record["pi_identity"] = False
    finally:
        Path(spec["record"]).write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1])
