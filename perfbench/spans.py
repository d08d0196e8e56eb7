"""Span tracing for the benchmark's traced run.

Every span wraps one public function or method of a ``secaggsim`` layer
from the outside: module functions are replaced in every module that
binds them by name (``aggserver.prg_expand``, ``useragent.prg_expand``,
...), methods on their class.  Nothing under ``src/`` changes, and
``Tracer.restore`` puts every original binding back.

A span's self time is its duration minus the time of the spans it
encloses.  A span that starts directly inside ``execute_round`` is a
top-level call of the round; its whole duration is charged to the
protocol phase in progress, so the phase times plus the orchestration
self time of ``execute_round`` add up to the round's wall time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from secaggsim import adversary, aggserver, crypto, detection, fixedpoint, orgtree, simulation, useragent, wire

PHASES = ("setup", "keys", "shares", "upload", "reveal", "unmask", "detect", "finalize")

TAG_NAMES = {value: name[len("TAG_"):] for name, value in vars(wire).items() if name.startswith("TAG_")}

# Phase of a message by tag.  Unmask traffic belongs to whichever phase
# asked for it: the unmask step or the post-detection exclusion.
_TAG_PHASE = {
    wire.TAG_SERVER_COMMIT: "setup",
    wire.TAG_ADVERT: "setup",
    wire.TAG_TREE_COMMIT: "setup",
    wire.TAG_RAND_OPEN: "setup",
    wire.TAG_PEER_LIST: "keys",
    wire.TAG_SHARE_MSG: "shares",
    wire.TAG_MASKED_UPLOAD: "upload",
    wire.TAG_REVEAL: "reveal",
    wire.TAG_UNMASK_REQUEST: None,
    wire.TAG_UNMASK_RESPONSE: None,
    wire.TAG_GLOBAL_MODEL: "finalize",
}

_MESSAGE_TAGS = {
    wire.ServerCommitMsg: wire.TAG_SERVER_COMMIT,
    wire.AdvertMsg: wire.TAG_ADVERT,
    wire.TreeCommitMsg: wire.TAG_TREE_COMMIT,
    wire.RandOpenMsg: wire.TAG_RAND_OPEN,
    wire.PeerListMsg: wire.TAG_PEER_LIST,
    wire.ShareMsg: wire.TAG_SHARE_MSG,
    wire.MaskedUploadMsg: wire.TAG_MASKED_UPLOAD,
    wire.UnmaskRequestMsg: wire.TAG_UNMASK_REQUEST,
    wire.UnmaskResponseMsg: wire.TAG_UNMASK_RESPONSE,
    wire.RevealMsg: wire.TAG_REVEAL,
    wire.GlobalModelMsg: wire.TAG_GLOBAL_MODEL,
}


class Tracer:
    """Aggregated spans: calls and self time per name, time per phase,
    and the counts the per-layer ratios need."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.phase_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.wire_bytes: Counter = Counter()  # (direction, tag) -> bytes
        self.rounds = 0
        self.round_wall_s = 0.0
        self._stack: list[float] = []  # time of enclosed spans, one per open span
        self._in_round = False
        self._phase = PHASES[0]
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ---------------------------------------

    def _span(self, fn, name, phase=None, observe=None, round_span=False):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            top = self._in_round and len(stack) == 1
            if top:
                p = phase(args) if callable(phase) else phase
                if p is not None:
                    self._phase = p
            if round_span:
                self._in_round = True
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s[name] += perf_counter() - entered - stack.pop()
                calls[name] += 1
                if round_span:
                    self._in_round = False
                    self.rounds += 1
                    self.round_wall_s += perf_counter() - entered
            if observe is not None:
                observe(args, kwargs, result)
            # the enclosing span and the phase also absorb this wrapper's own
            # bookkeeping, so it is not mistaken for orchestration
            dur = perf_counter() - entered
            if stack:
                stack[-1] += dur
            if top:
                self.phase_s[self._phase] += dur
            return result

        return wrapper

    def wrap_method(self, cls, attr, name, phase=None, observe=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._span(raw.__func__, name, phase, observe))
        else:
            wrapped = self._span(raw, name, phase, observe)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def wrap_function(self, fn, name, phase=None, observe=None, round_span=False):
        """Replace ``fn`` in every ``secaggsim`` module that binds it."""
        wrapped = self._span(fn, name, phase, observe, round_span)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("secaggsim"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding of {name} found")

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- observers for counts -----------------------------------------------------

    def _on_prg(self, args, kwargs, result):
        m, spec = args[1], args[2]
        bits = kwargs.get("mask_bits", args[3] if len(args) > 3 else None)
        self.counts["prg_bytes"] += 8 * m
        self.counts["prg_bits_used"] += (spec.word_bits if bits is None else bits) * m
        self.counts["prg_bits_drawn"] += 64 * m

    def _on_reconstruct(self, args, kwargs, result):
        self.counts["shares_consumed"] += len(args[0])

    def _on_receive_unmask(self, args, kwargs, result):
        self.counts["shares_received"] += len(args[2].shares)

    def _on_unmask_response(self, args, kwargs, result):
        self.counts["refused"] += len(result.refused)

    def _on_detect(self, args, kwargs, result):
        self.counts["flagged"] += len(result.flagged)

    def _on_round(self, args, kwargs, result):
        self.counts["forced_releases"] += sum(len(a.forced_releases) for a in kwargs["users"])

    def _on_deliver(self, args, kwargs, result):
        sender, encoded = args[1], args[3]
        direction = "down" if sender == wire.SERVER else "up"
        self.wire_bytes[(direction, encoded[0])] += len(encoded)

    # -- the span set -------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer the round touches."""
        fn = self.wrap_function
        fn(crypto.prg_expand, "crypto.prg_expand", observe=self._on_prg)
        fn(crypto.derive_shared_seed, "crypto.derive_shared_seed")
        fn(crypto.randomize_pub, "crypto.randomize_pub")
        fn(crypto.share_secret, "crypto.share_secret")
        fn(crypto.reconstruct_secret, "crypto.reconstruct_secret", observe=self._on_reconstruct)

        self.wrap_method(fixedpoint.ParamVector, "__post_init__", "fixedpoint.paramvector")
        fn(fixedpoint.vec_add_mod, "fixedpoint.vec_add_sub")
        fn(fixedpoint.vec_sub_mod, "fixedpoint.vec_add_sub")

        fn(orgtree.run_tree_setup, "orgtree.run_tree_setup")
        fn(orgtree.build_peer_sets, "orgtree.build_peer_sets")
        fn(orgtree.verify_setup, "orgtree.verify_setup")

        for cls, tag in _MESSAGE_TAGS.items():
            self.wrap_method(cls, "to_bytes", "wire.to_bytes", phase=_TAG_PHASE[tag])
        for cls in (wire.MaskedUploadMsg, wire.GlobalModelMsg):
            self.wrap_method(cls, "from_vector", "wire.from_vector", phase=_TAG_PHASE[_MESSAGE_TAGS[cls]])
        self.wrap_method(wire.RevealMsg, "__init__", "wire.reveal_init", phase="reveal")
        self.wrap_method(
            wire.StarTransport,
            "deliver",
            "wire.deliver",
            phase=lambda args: _TAG_PHASE[args[3][0]],
            observe=self._on_deliver,
        )

        ua = useragent.UserAgent
        for attr, phase in (
            ("begin_round", "setup"),
            ("open_rand", "setup"),
            ("receive_peer_list", "keys"),
            ("distribute_shares", "shares"),
            ("receive_share", "shares"),
            ("mask_input", "upload"),
            ("verify_reveal", "reveal"),
        ):
            self.wrap_method(ua, attr, f"useragent.{attr}", phase=phase)
        self.wrap_method(ua, "unmask_response", "useragent.unmask_response", observe=self._on_unmask_response)

        srv = aggserver.AggServer
        for attr, phase in (
            ("begin_round", "setup"),
            ("receive_advert", "setup"),
            ("commit_tree", "setup"),
            ("receive_open", "setup"),
            ("finish_setup", "setup"),
            ("peer_list_for", "keys"),
            ("route_share", "shares"),
            ("mark_dropout", "upload"),
            ("receive_upload", "upload"),
            ("reveal", "reveal"),
            ("unmask_requests", "unmask"),
            ("aggregate_subgroups", "unmask"),
            ("recover_dropout", "unmask"),
            ("exclusion_requests", "finalize"),
            ("finalize", "finalize"),
        ):
            self.wrap_method(srv, attr, f"aggserver.{attr}", phase=phase)
        self.wrap_method(srv, "receive_unmask", "aggserver.receive_unmask", observe=self._on_receive_unmask)
        fn(aggserver.fedsgd_update, "aggserver.fedsgd_update", phase="finalize")

        self.wrap_method(detection.Detector, "detect", "detection.detect", phase="detect", observe=self._on_detect)

        fn(adversary.benign_update_task, "adversary.benign_update")
        fn(adversary.benign_update_synthetic, "adversary.benign_update")
        fn(adversary.attacker_update, "adversary.attacker_update")
        self.wrap_method(adversary.ToyTask, "train_backdoor_target", "adversary.train_backdoor_target")
        self.wrap_method(adversary.ToyTask, "evaluate", "adversary.evaluate")

        fn(simulation.execute_round, "simulation.execute_round", observe=self._on_round, round_span=True)
