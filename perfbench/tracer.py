"""Outside-in layer tracing for uwofdm.

``Tracer.install`` replaces the listed module-level functions with
wrappers in every loaded ``uwofdm`` module that binds them (so a
function bound elsewhere by ``from .numerics import forward_dft`` is
wrapped there too).  Each call records a span ``[name, start, end,
parent, items]`` in memory; ``uninstall`` puts every original back.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import sys
import time

# (defining module, function, span name).  Functions that share a span
# name are reported as one layer.
TARGETS = (
    ("numerics", "forward_dft", "numerics.dft"),
    ("numerics", "inverse_dft", "numerics.dft"),
    ("frame", "derive_generator", "frame.derive_generator"),
    ("txchain", "encode_batch", "txchain.encode_batch"),
    ("channel", "apply_channel_cyclic", "channel.apply_channel_cyclic"),
    ("channel", "cyclic_convolve", "channel.cyclic_convolve"),
    ("channel", "sample_channel", "channel.sample_channel"),
    ("rxchain", "build_equalizer", "rxchain.build_equalizer"),
    ("rxchain", "equalize_batch", "rxchain.equalize"),
    ("rxchain", "zf_only_symbol", "rxchain.equalize"),
    ("fec", "conv_encode", "fec.encode"),
    ("fec", "puncture", "fec.encode"),
    ("fec", "interleave", "fec.encode"),
    ("fec", "qpsk_soft_demap", "fec.demap"),
    ("fec", "deinterleave", "fec.demap"),
    ("fec", "depuncture", "fec.demap"),
    ("fec", "qpsk_map", "fec.qpsk"),
    ("fec", "qpsk_hard_bits", "fec.qpsk"),
    ("fec", "viterbi_decode", "fec.viterbi"),
    ("cpref", "cp_encode_symbol", "cpref.encode"),
    ("cpref", "cp_apply_channel", "cpref.channel"),
    ("cpref", "cp_decode_symbol", "cpref.decode"),
    ("harness", "run_ber_sweep", "harness.sweep"),
)


def _frames(args) -> int:
    """Frames in a ``viterbi_decode`` call: the LLR array's leading axis."""
    llrs = getattr(args[0], "llrs", args[0])
    return 1 if llrs.ndim == 1 else llrs.shape[0]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []   # (module, attribute, original)
        self.missing: list = []    # targets the loaded package lacks

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _frames if name == "fec.viterbi" else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    count(args) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "uwofdm") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, attr, span_name in TARGETS:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list) -> dict:
    """Per span name: calls, items, inclusive and self seconds.  Self time
    is a span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, items) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["items"] += items
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
    return out


def write_spans(path, spans: list) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
